"""Forward outputs pinned as literals, so arithmetic changes stay within 1e-10.

The values were produced by the release before linear folding in
``local_aggregate`` and the in-step readout of ``selective_ssm`` (whose
outputs those changes move by rounding only), with float64 numpy on
x86-64 and OpenBLAS, by running exactly the builds and inputs below and
printing each logit with ``"%.17g"``:

- classification: ``build_model(preset_config("pcm-tiny", seed=0))`` on
  1024 points drawn as ``PCG64(2024).uniform(-1, 1, size=(1024, 3))``;
- segmentation: ``build_model(preset_config("pcm-tiny",
  task="part_segmentation", seed=0))`` on the 16 x 16 x 32 integer
  lattice (x slowest), rows 0, 4097 and 8191 of the (8192, 15) logits.
"""

import numpy as np

from pcmamba.model import (
    TASK_SEGMENTATION,
    build_model,
    forward_classification,
    forward_segmentation,
    preset_config,
)
from pcmamba.pointset import PointCloud

ATOL = 1e-10

GOLDEN_CLS = [
    0.46516519101187281, 0.12816841359569464, 0.75008691781510239,
    -0.94561726422929915, -0.71372165142906241, 1.3727306171708302,
    -0.92869033543860069, 0.13259143239697824, -0.70380873679810185,
    1.5105379696630141, -0.22112763959695797, 1.7153520143541974,
    0.73207264421270735, -1.0980005507934418, 0.53128663787770791,
]  # fmt: skip

GOLDEN_SEG_ROWS = {
    0: [
        0.77329094362948514, 0.60451855621728079, 0.87396977945949705,
        0.48611564283206005, 0.65775230980914445, -0.23934411127362082,
        -0.78858006997526442, -0.74681051300939649, -1.0951398637261198,
        2.2622273850569314, -2.077963509250575, -0.0066183113308797828,
        -0.37086213174679145, -0.063088783056480691, 0.60907283765678544,
    ],
    4097: [
        0.42839820616962421, 0.12995711428992007, 0.61395356798513712,
        -0.068048715032652835, 0.077471199308881869, -0.010159842981707565,
        0.024148164302591119, -0.24609665173981421, -0.5777894680455683,
        0.76685917651515179, -0.60255493618078892, 0.2439558005152653,
        -0.030872945853223546, -0.26331621587696835, 0.16215039195759684,
    ],
    8191: [
        0.26856139462661227, 0.22468729195206136, 0.33351271525966836,
        0.0048661210478911357, 0.21640434106028611, 0.17142933350628392,
        -0.13015230735103384, 0.0098672040935458283, -0.33993489132074084,
        0.36217866866605514, -0.33612472246564085, -0.058332317029090801,
        -0.19779688295382836, 0.020491554343709559, 0.11203632652158498,
    ],
}  # fmt: skip


def test_classification_logits_match_golden():
    rng = np.random.Generator(np.random.PCG64(2024))
    cloud = PointCloud(rng.uniform(-1.0, 1.0, size=(1024, 3)))
    logits = forward_classification(build_model(preset_config("pcm-tiny", seed=0)), cloud)
    np.testing.assert_allclose(logits, GOLDEN_CLS, rtol=0, atol=ATOL)


def test_segmentation_lattice_rows_match_golden():
    grid = np.meshgrid(np.arange(16), np.arange(16), np.arange(32), indexing="ij")
    lattice = np.stack(grid, axis=-1).reshape(-1, 3).astype(np.float64)
    model = build_model(preset_config("pcm-tiny", task=TASK_SEGMENTATION, seed=0))
    logits = forward_segmentation(model, PointCloud(lattice))
    assert logits.shape == (8192, 15)
    rows = sorted(GOLDEN_SEG_ROWS)
    np.testing.assert_allclose(
        logits[rows], [GOLDEN_SEG_ROWS[r] for r in rows], rtol=0, atol=ATOL
    )
