"""Point cloud serialization, selective SSM kernels, and the PCM encoder."""

from .pointset import NormalizedCloud, PointCloud, canonical_tiebreak_order, normalize_unit_cube

# NOTE: the serialize() operation itself is deliberately not re-exported at
# top level; it would shadow the pcmamba.serialize submodule. Use
# pcmamba.serialize.serialize or import it from the submodule.
from .serialize import (
    code_func,
    grid_quantize,
    hilbert_code,
    locality_metrics,
    morton_code,
    order_codes,
)
from .sample import (
    NeighborhoodIndex,
    farthest_point_sample,
    interpolate_features,
    knn,
)
from .local import GAMParams, MLPStack, ResidualMLP, gam_normalize, gam_sigma, local_aggregate
from .ssm import (
    LTISystem,
    SelectiveSSMLayer,
    bidirectional_mamba,
    conv_form,
    discretize,
    mamba_block,
    scan,
    scan_backward,
    selective_ssm,
)
from .embed import OrderPromptBank, attach_prompts, positional_embed, strip_prompts
from .model import (
    ModelConfig,
    StageConfig,
    build_model,
    count_parameters,
    encode,
    estimate_flops,
    forward_classification,
    forward_segmentation,
    preset_config,
    train_linear_probe,
)
from .io import generate_shape, load_weights, read_xyz, save_weights, write_xyz

__version__ = "0.1.0"
