"""Simulation and regularized steering of fractional multi-delay systems."""

from .backend import BACKEND_NAME
from .config import ExperimentConfig, parse_config, synthesize_shape
from .control import (ControlProblem, Grammian, SweepReport, beta_sweep,
                      closed_loop_solve, compute_grammian, control_energy,
                      residual_p, resolvent_apply, synthesize_control)
from .errors import (ConfigError, DomainError, GridMismatchError,
                     InsufficientDataError, ModelValidationError,
                     OuterLoopDivergenceError, PicardDivergenceError)
from .fractional import (ConvolutionKernel, FracOrder, SampledFunction,
                         SingularWeights, build_singular_weights,
                         caputo_derivative, convolution_kernel, frac_integral,
                         rl_derivative)
from .solver import (SolverConfig, Trajectory, eval_delayed_state,
                     mild_residual, nonlocal_offset, picard_solve)
from .special import (MittagLefflerParams, mittag_leffler, ml, ml_array,
                      underflow_cutoff, wright_moment, wright_pdf)
from .spectral import (DelayFn, ModelSpec, NonlinearityFn, SpectralState,
                       apply_S_alpha, apply_T_alpha, apply_control_multiplier,
                       apply_semigroup, apply_state_multiplier,
                       synthesize_physical)

__version__ = "0.1.0"
