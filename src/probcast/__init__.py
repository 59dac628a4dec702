"""Desk-scale probabilistic gridded forecasting.

Continuous fields are binned into equal-width categories; convolutional
residual networks predict a per-gridpoint probability density over the
bins; dropout-at-inference passes form ensembles that are linearly pooled;
a stacked dense network fuses learners; and a verification suite scores
everything (latitude-weighted RMSE, CRPS, coverage, top-k, spread, CDF
threshold contours).
"""

from .binning import (BinSpec, CategoricalField, DensityGrid, density_stddev,
                      discretize, expectation, fit_bins, inbuilt_rmse)
from .ensemble import (EnsembleSet, ensemble_spread, generate_ensemble,
                       linear_pool, spread_skill_ratio)
from .gfb import GFBDecodeError, load_dataset, save_dataset
from .grid import (CONSTANT, SURFACE, Dataset, Field, GridSpec, SplitPlan,
                   anomaly, climatology, latitude_weights, persistence_forecast)
from .resnet import (ResNet, ResNetConfig, TrainHistory, TrainingSchedule,
                     build_samples, train)
from .stacking import (LearnerOutput, StackConfig, StackModel, assemble_stack_inputs,
                       average_combine, stack_predict, train_stack)
from .synth import SynthConfig, synth_generate, with_leaked_variable, with_noise_variable
from .verification import (ScoreReport, ThresholdMap, assemble_report, cdf_threshold,
                           coverage_stats, crps, mean_crps, topk_match,
                           weighted_mse_ci, weighted_rmse)
from .contours import ContourLine, probability_contours

__version__ = "0.1.0"
