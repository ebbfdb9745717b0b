"""Simulation and regularized steering of fractional multi-delay systems."""

from .backend import BACKEND_NAME
from .config import ExperimentConfig, parse_config, synthesize_shape
from .control import (ControlProblem, SweepReport, beta_sweep,
                      closed_loop_solve, compute_grammian, control_energy,
                      residual_p, resolvent_apply, synthesize_control)
from .errors import (ConfigError, DomainError, GridMismatchError,
                     ModelValidationError, PicardDivergenceError)
from .fractional import ConvolutionKernel, convolution_kernel
from .solver import (SolverConfig, Trajectory, mild_residual,
                     nonlocal_offsets, picard_solve)
from .special import ml, ml_array, underflow_cutoff, wright_pdf
from .spectral import DelayFn, ModelSpec, NonlinearityFn, synthesize_physical

__version__ = "0.1.0"
