import types

import zsalign

# every name the package exports (its submodules aside); an added or
# removed name shows up in the diff of this set
PUBLIC_NAMES = {
    "Tensor", "check_finite", "finite_difference_check", "softmax",
    "Rng",
    "Linear", "Mlp",
    "Adam",
    "GaussianParams", "coral", "gaussian_w2", "icoral",
    "kl_to_standard_normal", "l1_reconstruction",
    "sliced_wasserstein_discrepancy", "softmax_cross_entropy",
    "Architecture", "Model", "load_checkpoint", "save_checkpoint",
    "Batch", "SynthConfig", "ZslDataset", "batch_iter", "load_dataset",
    "minmax_features", "save_dataset", "synth_generate",
    "AblationFlags", "TrainSchedule", "TrainingDivergence", "Weights", "fit",
    "schedule_weights", "step_joint", "step_max_discrepancy",
    "step_min_discrepancy", "train_epoch", "write_curves",
    "EvalCounts", "MetricsReport", "czsl_eval", "gzsl_eval",
    "harmonic_mean", "per_class_top1", "synthesize_latents",
    "train_softmax_classifier",
    "run_gradcheck",
}


def test_exported_names_are_pinned():
    exported = {name for name, value in vars(zsalign).items()
                if not name.startswith("_")
                and not isinstance(value, types.ModuleType)}
    assert exported == PUBLIC_NAMES
