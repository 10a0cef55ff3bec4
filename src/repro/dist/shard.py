"""Sharded synthetic-population generation with a resumable manifest.

:class:`~repro.data.synthetic.SyntheticWorld` builds every user in one
process and one RNG stream — fine for benchmarks, impossible for a
multi-million-user population.  This module splits the *user* axis into
independent shards:

- the **item world** (centroids, latents, coverage) is a deterministic
  function of the world seed alone — every shard derives the identical
  item universe, because items are drawn *before* users in the world's
  RNG stream;
- each **user shard** draws its block from its own
  ``SeedSequence([seed, _USER_STREAM, shard_index])`` generator, with the
  user-feature projection shared from ``SeedSequence([seed, _PROJ_STREAM])``.
  Shard contents therefore depend only on ``(config, shard_index)`` —
  never on which worker produced them, how often that worker was killed,
  or generation order — which is what makes kill-and-resume sound.

The sharded population is statistically identical to (but numerically a
different draw than) the single-process world: the per-block generator
math mirrors ``SyntheticWorld._build_users`` exactly, but the draws come
from per-shard streams.

Durability: each shard archive is written through
:func:`~repro.utils.atomicio.atomic_savez` (temp + rename) with a SHA-256
sidecar, behind the ``dist.shard.write`` fault point and a retried
:func:`~repro.resilience.retry.call_with_retry` (transient ``OSError``
absorbed).  ``manifest.json`` lists every shard with its digest;
:func:`generate_shards` skips shards that already verify, so a killed
generation run resumes from where it died, and :func:`load_population`
refuses corrupt shards with a classified :class:`DistError`.
"""

from __future__ import annotations

import dataclasses
import json
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from ..data.schema import Population
from ..data.synthetic import SyntheticWorld, WorldConfig
from ..resilience.chaos import faultpoint
from ..resilience.retry import DEFAULT_IO_POLICY, call_with_retry
from ..utils.atomicio import atomic_savez, atomic_write_bytes, verify_checksum_sidecar
from .supervisor import DistError

__all__ = [
    "ShardPlan",
    "shard_path",
    "manifest_path",
    "generate_shard",
    "generate_shards",
    "load_population",
]

# Distinct SeedSequence stream keys so shard draws can never collide with
# the world's own generator or with each other.
_USER_STREAM = 7919
_PROJ_STREAM = 7920

_MANIFEST_VERSION = 1


@dataclass(frozen=True)
class ShardPlan:
    """How one synthetic population splits into shards.

    ``world.num_users`` is the *total* population; shard ``i`` owns the
    contiguous user block ``[offset_i, offset_i + size_i)`` with the first
    ``num_users % num_shards`` shards one user larger.
    """

    world: WorldConfig
    num_shards: int = 4

    def __post_init__(self) -> None:
        if self.num_shards < 1:
            raise ValueError("num_shards must be >= 1")
        if self.world.num_users < self.num_shards:
            raise ValueError("need at least one user per shard")

    def shard_sizes(self) -> list[int]:
        base, remainder = divmod(self.world.num_users, self.num_shards)
        return [base + (1 if i < remainder else 0) for i in range(self.num_shards)]

    def shard_offsets(self) -> list[int]:
        offsets, total = [], 0
        for size in self.shard_sizes():
            offsets.append(total)
            total += size
        return offsets


def shard_path(directory: str | Path, index: int) -> Path:
    return Path(directory) / f"shard_{index:04d}.npz"


def manifest_path(directory: str | Path) -> Path:
    return Path(directory) / "manifest.json"


def _item_world(config: WorldConfig) -> SyntheticWorld:
    """The shared item universe every shard derives identically.

    Items are drawn before users in ``SyntheticWorld``'s single stream, so
    a one-user world has bit-identical item latents/coverage to the full
    world — we pay one tiny user block to reuse the item builder verbatim
    instead of forking its RNG discipline.
    """
    return SyntheticWorld(dataclasses.replace(config, num_users=1))


def _user_projection(config: WorldConfig) -> np.ndarray:
    rng = np.random.default_rng(
        np.random.SeedSequence([config.seed, _PROJ_STREAM])
    )
    return rng.normal(
        0.0, 1.0, size=(config.latent_dim, config.user_feature_dim)
    ) / np.sqrt(config.latent_dim)


def _build_user_block(
    config: WorldConfig, index: int, size: int, world: SyntheticWorld
) -> dict[str, np.ndarray]:
    """One shard's user arrays — ``SyntheticWorld._build_users`` math on a
    shard-local generator (same draw order: concentration → dirichlet →
    latent noise → feature noise)."""
    rng = np.random.default_rng(
        np.random.SeedSequence([config.seed, _USER_STREAM, index])
    )
    log_low = np.log(config.concentration_low)
    log_high = np.log(config.concentration_high)
    concentration = np.exp(rng.uniform(log_low, log_high, size=size))
    theta = np.vstack(
        [rng.dirichlet(np.full(config.num_topics, c)) for c in concentration]
    )
    centroids = np.vstack(
        [
            world.item_latent[world.item_topic_assignment == j].mean(axis=0)
            for j in range(config.num_topics)
        ]
    )
    latent = theta @ centroids + rng.normal(0.0, 0.3, size=(size, config.latent_dim))
    entropy = -(theta * np.log(theta + 1e-12)).sum(axis=1)
    breadth = entropy / np.log(config.num_topics)
    rho = np.clip(
        (0.2 + 0.8 * breadth)[:, None] * theta * config.num_topics, 0.0, 1.0
    )
    features = latent @ _user_projection(config) + rng.normal(
        0.0, config.feature_noise, size=(size, config.user_feature_dim)
    )
    return {
        "features": features,
        "topic_preference": theta,
        "diversity_weight": rho,
        "latent": latent,
    }


def generate_shard(
    plan: ShardPlan,
    index: int,
    directory: str | Path,
    sleep=time.sleep,
) -> Path:
    """Generate shard ``index`` and write its archive + checksum sidecar.

    Pure function of ``(plan.world, index)``; memory use is one user
    block, never the whole population.  The write sits behind the
    ``dist.shard.write`` fault point and is retried under the transient-IO
    policy.
    """
    if not 0 <= index < plan.num_shards:
        raise ValueError(f"shard index {index} outside [0, {plan.num_shards})")
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    world = _item_world(plan.world)
    size = plan.shard_sizes()[index]
    arrays = _build_user_block(plan.world, index, size, world)
    arrays["meta/index"] = np.array(index, dtype=np.int64)
    arrays["meta/size"] = np.array(size, dtype=np.int64)
    arrays["meta/seed"] = np.array(plan.world.seed, dtype=np.int64)
    arrays["meta/num_shards"] = np.array(plan.num_shards, dtype=np.int64)
    path = shard_path(directory, index)

    def write() -> Path:
        faultpoint("dist.shard.write")
        return atomic_savez(path, arrays, fsync=False, checksum=True)

    return call_with_retry(
        write, policy=DEFAULT_IO_POLICY, site="dist.shard.write", sleep=sleep
    )


def _shard_valid(plan: ShardPlan, index: int, directory: Path) -> bool:
    """True when shard ``index`` is on disk, verified, and matches the plan."""
    path = shard_path(directory, index)
    if not path.exists() or verify_checksum_sidecar(path) is not True:
        return False
    try:
        with np.load(path, allow_pickle=False) as archive:
            return (
                int(archive["meta/index"]) == index
                and int(archive["meta/seed"]) == plan.world.seed
                and int(archive["meta/num_shards"]) == plan.num_shards
                and int(archive["meta/size"]) == plan.shard_sizes()[index]
            )
    except (OSError, ValueError, KeyError, EOFError):
        return False


def _sidecar_digest(path: Path) -> str:
    from ..utils.atomicio import checksum_sidecar_path

    return checksum_sidecar_path(path).read_text().split()[0]


def generate_shards(
    directory: str | Path,
    plan: ShardPlan,
    sleep=time.sleep,
) -> dict:
    """Generate every missing/invalid shard and (re)write the manifest.

    Shards that already verify are left untouched — a generation run
    killed after shard ``k`` resumes by producing only ``k+1..S-1``.
    Shards are generated serially.  Returns the manifest dict.
    """
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    outstanding = [
        index
        for index in range(plan.num_shards)
        if not _shard_valid(plan, index, directory)
    ]
    for index in outstanding:
        generate_shard(plan, index, directory, sleep=sleep)
    entries = []
    for index in range(plan.num_shards):
        path = shard_path(directory, index)
        entries.append(
            {
                "index": index,
                "path": path.name,
                "users": plan.shard_sizes()[index],
                "offset": plan.shard_offsets()[index],
                "sha256": _sidecar_digest(path),
            }
        )
    manifest = {
        "version": _MANIFEST_VERSION,
        "seed": plan.world.seed,
        "num_shards": plan.num_shards,
        "num_users": plan.world.num_users,
        "generated": len(outstanding),
        "shards": entries,
    }
    atomic_write_bytes(
        manifest_path(directory),
        json.dumps(manifest, indent=1).encode("utf-8"),
        fsync=False,
    )
    return manifest


def load_population(directory: str | Path) -> Population:
    """Reassemble the full population from a shard directory.

    Every shard is checksum-verified before loading; a missing or corrupt
    shard raises :class:`DistError` naming it (rerun
    :func:`generate_shards` to repair).  Shards concatenate in index
    order, so user ``i`` of shard ``s`` lands at global row
    ``offset_s + i``.
    """
    directory = Path(directory)
    path = manifest_path(directory)
    if not path.exists():
        raise DistError(f"no shard manifest at {path}")
    manifest = json.loads(path.read_text())
    parts: list[Population] = []
    for entry in sorted(manifest["shards"], key=lambda e: e["index"]):
        archive_path = directory / entry["path"]
        if not archive_path.exists() or verify_checksum_sidecar(archive_path) is not True:
            raise DistError(
                f"shard {entry['index']} at {archive_path} is missing or "
                "corrupt; rerun generate_shards to repair it"
            )
        with np.load(archive_path, allow_pickle=False) as archive:
            parts.append(
                Population(
                    features=archive["features"],
                    topic_preference=archive["topic_preference"],
                    diversity_weight=archive["diversity_weight"],
                    latent=archive["latent"],
                )
            )
    return Population.concat(parts)
