"""Melody-guided text-to-music generation, end to end at desk scale.

Modules by stage:

- ``smallnet``      dense nets, manual gradients, Adam, checkpoints
- ``melody_codec``  melody triplets <-> triplet token strings
- ``signal``        mel analysis, tone synthesis, oscillator vocoder, WAV I/O
- ``clmp``          tri-modal contrastive alignment (text/waveform/melody)
- ``latentcodec``   patchwise mel <-> latent autoencoder
- ``diffusion``     schedules, conditional denoiser, CFG, DDPM/DDIM samplers
- ``metrics``       Fréchet distance, paired KL, inception-style score
- ``corpus``        synthetic aligned (text, melody, audio) corpus
- ``config`` / ``pipeline`` / ``cli``  orchestration; ``pipeline`` also keeps
  the melody database (one embedding matrix, exact top-1 retrieval)
"""

__version__ = "0.1.0"

from .config import PipelineConfig
from .errors import (
    FormatError,
    GradientError,
    MelodyGenError,
    MissingArtifactError,
    ParseError,
    RangeError,
    SamplingError,
    ShapeError,
    ValidationError,
)

__all__ = [
    "PipelineConfig",
    "MelodyGenError",
    "ValidationError",
    "ShapeError",
    "ParseError",
    "RangeError",
    "FormatError",
    "GradientError",
    "SamplingError",
    "MissingArtifactError",
    "__version__",
]
