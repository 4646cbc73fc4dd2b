import numpy as np

from pcmamba.model import ModelConfig, StageConfig
from pcmamba.pointset import PointCloud


def small_config(task="classification", num_classes=3, seed=0, stage3_layers=1, **kw):
    """Four tiny stages so model-level tests run in milliseconds."""
    stages = (
        StageConfig(channels=12, serializations=("xyz",), points=48, k_neighbors=6),
        StageConfig(channels=12, serializations=("xzy",), points=24, k_neighbors=6),
        StageConfig(channels=24, serializations=("z",), points=12, k_neighbors=6),
        StageConfig(
            channels=24,
            serializations=("hilbert",) * stage3_layers,
            points=6,
            k_neighbors=4,
        ),
    )
    return ModelConfig(
        stages=stages, n_p=2, grid_n=16, task=task, num_classes=num_classes, seed=seed, **kw
    )


def random_cloud(n=64, seed=0, features=None):
    rng = np.random.Generator(np.random.PCG64(seed))
    return PointCloud(rng.uniform(size=(n, 3)), features=features)
