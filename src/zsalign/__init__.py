"""Cross-modal zero-shot learning via hierarchical structure-then-
distribution alignment between a visual and a semantic domain."""

__version__ = "0.1.0"

from .tensor import Tensor, check_finite, finite_difference_check, softmax
from .rng import Rng
from .nn import Linear, Mlp
from .optim import Adam
from .losses import (GaussianParams, coral, gaussian_w2, icoral,
                     kl_to_standard_normal, l1_reconstruction,
                     sliced_wasserstein_discrepancy, softmax_cross_entropy)
from .model import Architecture, Model, load_checkpoint, save_checkpoint
from .data import (Batch, SynthConfig, ZslDataset, batch_iter, load_dataset,
                   minmax_features, save_dataset, synth_generate)
from .training import (AblationFlags, TrainSchedule, TrainingDivergence,
                       Weights, fit, schedule_weights, step_joint,
                       step_max_discrepancy, step_min_discrepancy,
                       train_epoch, write_curves)
from .evaluation import (EvalCounts, MetricsReport, czsl_eval, gzsl_eval,
                         harmonic_mean, per_class_top1, synthesize_latents,
                         train_softmax_classifier)
from .gradcheck import run_gradcheck
