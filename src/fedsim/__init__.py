"""Deterministic simulator for federated optimization under periodic
client participation."""

from .core import (
    ALGORITHMS,
    ConfigError,
    RunConfig,
    RunRecord,
    build_run_config,
    validate_run_config,
)
from .harness import OBJECTIVES, run_grid, run_once, rounds_to_target
from .participation import PATTERNS

__version__ = "0.1.0"
__all__ = [
    "ALGORITHMS",
    "ConfigError",
    "OBJECTIVES",
    "PATTERNS",
    "RunConfig",
    "RunRecord",
    "build_run_config",
    "validate_run_config",
    "run_grid",
    "run_once",
    "rounds_to_target",
    "__version__",
]
