"""Analog Lagrange coded computing with DFT-code decoding.

Library layout:
    numeric       complex linear-algebra and polynomial kernels
    codec         Lagrange encoding, share evaluation, reconstruction
    dft_code      (N, K) DFT code and its decoder blocks
    localization  independent / restricted / joint error localization
    threat        Byzantine injection, collusion designs, precision noise
    bounds        analytical error-rate bounds and attack objectives
    assignment    share-assignment optimization for unreliable workers
    scenario      experiment configuration
    harness       seeded trial runner and sweep driver
    cli           command-line entry point
"""

from .codec import EncodingParams, relative_error
from .dft_code import DftCode, build_code
from .scenario import Scenario
from .harness import run_trial

__all__ = [
    "EncodingParams",
    "relative_error",
    "DftCode",
    "build_code",
    "Scenario",
    "run_trial",
]

__version__ = "0.1.0"
