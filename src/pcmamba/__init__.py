"""Point cloud serialization, selective SSM kernels, and the PCM encoder."""

from . import embed, io, local, model, nn, pointset, sample, serialize, ssm

__version__ = "0.1.0"
