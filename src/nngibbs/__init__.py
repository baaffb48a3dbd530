"""Sampling neural-network posteriors.

A blocked Gibbs sampler for networks with Gaussian noise injected at
every pre- and post-activation (dense, convolutional, pooling, bias and
probit-output layers), HMC and MALA baselines on both that posterior and
the plain output-loss posterior, and thermalization diagnostics built
around the informed-start merge criterion for synthetic data.
"""

from .kernels import NotPositiveDefinite, RngStream, cholesky_factor
from .network import (
    Activation,
    ChainState,
    ConvLayer,
    Dataset,
    DenseLayer,
    NetworkSpec,
    NoiseSchedule,
    PoolLayer,
    PriorSpec,
    ShapeMismatch,
    forward_generate,
    predict,
    test_mse,
)
from .posteriors import intermediate_log_posterior
from .gibbs import SweepSchedule, gibbs_sweep
from .samplers import HmcSettings, MalaSettings, hmc_step, mala_step, run_chain
from .diagnostics import (
    DegenerateVariance,
    InformedNotStationary,
    RhatReport,
    TraceSeries,
    rhat,
    stationarity_onset,
    teacher_student_merge,
)
from .datasets import generate_teacher_student, load_idx
from .harness import ExperimentConfig, initialize_chain, run_experiment

__version__ = "0.1.0"
