"""Data substrate: schemas, synthetic worlds, dataset builders, batching."""

from .appstore import APPSTORE_SCALES, make_appstore_world
from .batching import (
    RerankBatch,
    build_batch,
    iterate_batches,
    normalized_initial_scores,
    split_history_by_topic,
)
from .io import (
    load_catalog,
    load_histories,
    load_population,
    load_requests,
    save_catalog,
    save_histories,
    save_population,
    save_requests,
)
from .movielens import MOVIELENS_SCALES, make_movielens_world
from .schema import Catalog, Population, RankingRequest, RerankDataset
from .splits import train_test_split
from .synthetic import SyntheticWorld, WorldConfig
from .taobao import TAOBAO_SCALES, make_taobao_world
from .topics import GaussianMixture, gmm_coverage, multihot_coverage, onehot_coverage

__all__ = [
    "APPSTORE_SCALES",
    "Catalog",
    "GaussianMixture",
    "MOVIELENS_SCALES",
    "Population",
    "RankingRequest",
    "RerankBatch",
    "RerankDataset",
    "SyntheticWorld",
    "TAOBAO_SCALES",
    "WorldConfig",
    "build_batch",
    "gmm_coverage",
    "iterate_batches",
    "load_catalog",
    "load_histories",
    "load_population",
    "load_requests",
    "make_appstore_world",
    "make_movielens_world",
    "make_taobao_world",
    "multihot_coverage",
    "normalized_initial_scores",
    "onehot_coverage",
    "save_catalog",
    "save_histories",
    "save_population",
    "save_requests",
    "split_history_by_topic",
    "train_test_split",
]
