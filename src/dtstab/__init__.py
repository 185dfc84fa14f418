"""Robust stability laboratory for time-varying discrete-time systems.

Simulate systems x(t+1) = f(t, d(t), x(t), u(t)) under disturbance and input
policies, numerically verify Lyapunov certificates for output stability and
input-to-output estimates, fit decay envelopes to trajectory data, and
synthesize delay-chain dynamic output-feedback controllers from reconstructible
state feedbacks.
"""

from .expr import (Dims, Env, Expr, ExprDomainError, ExprError, ExprNameError,
                   ExprSyntaxError, eval_expression, parse_expression)
from .system import (ConstantDisturbance, ConstantInput, GreedyDisturbance,
                     InputPolicy, DisturbancePolicy, RandomDisturbance,
                     SequenceInput, SystemDef, Trajectory, ZeroInput,
                     closed_loop, parse_system_file, reachable_bound,
                     simulate, step, vecnorm)
from .comparison import (KFn, KLEnvelope, TimeGain, check_domination, constant,
                         fit_kl_envelope, geometric, identity, kfn_from_expr,
                         linear, power_fn, timegain_from_expr, validate_class)
from .certify import (CertificateReport, LyapunovCandidate, StateGrid,
                      build_transformed_system, check_contraction,
                      check_ios_decrease, check_relaxed_decrease,
                      check_rofs_inf_sup, check_sandwich, compose_V_from_U,
                      projection_fiber, tau_bound)
from .stability import (FalsifyBudget, StabilityReport, adversarial_batch,
                        build_small_input_system, check_ios_estimate,
                        check_kl_estimate, falsify, test_output_attractivity,
                        test_output_stability)
from .synth import (DelayChainController, ReconstructionMap,
                    build_extended_system, check_reconstruction, iterate_maps,
                    run_output_feedback, synthesize_delay_controller)
from .registry import EXAMPLES, ExampleBundle, load_example

__version__ = "0.1.0"
