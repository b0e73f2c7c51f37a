"""latbal: balanced subsampling and disentangled attribute directions
for labeled latent-vector datasets.

Pipeline in one breath: build (or import) a dataset of latent codes with
binary attribute labels, balance its attribute joint distribution by
contingency-cell subsampling, fit one linear direction per attribute
(class-centroid difference or linear-SVM normal), then quantify each
direction's effect and entanglement with re-scoring against a scorer.
A synthetic linear attribute world with planted ground-truth directions
serves as generator + scorer for experiments and tests.
"""

__version__ = "0.1.0"

from . import rng
from .contingency import (ContingencyTable, ImbalanceStats, build_contingency,
                          imbalance_stats)
from .core import (AttributeSchema, LatentDataset, SemanticDirection,
                   split_by_attribute, validate_dataset)
from .dataio import LatdFormatError, read_dataset, write_dataset
from .directions import (centroid_direction, conditional_project, edit_latent,
                         load_direction, save_direction, svm_direction)
from .evaluation import (RescoreMatrix, SweepReport, SweepRow, effect,
                         fit_directions, overall_entanglement, rescore,
                         sweep_regularization, sweep_sample_size)
from .oracle import (LinearAttributeWorld, default_world, load_world,
                     make_world, sample_world, save_world)
from .sampler import (SamplePlan, SubsampleResult, balanced_subsample,
                      uniform_subsample)
from .svm import SvmModel, train_svm

__all__ = [
    "__version__",
    "AttributeSchema", "LatentDataset", "SemanticDirection",
    "validate_dataset", "split_by_attribute",
    "ContingencyTable", "ImbalanceStats", "build_contingency", "imbalance_stats",
    "SamplePlan", "SubsampleResult", "balanced_subsample", "uniform_subsample",
    "SvmModel", "train_svm",
    "centroid_direction", "svm_direction", "conditional_project", "edit_latent",
    "save_direction", "load_direction",
    "LinearAttributeWorld", "make_world", "sample_world",
    "default_world", "save_world", "load_world",
    "RescoreMatrix", "SweepReport", "SweepRow", "rescore", "effect",
    "overall_entanglement", "fit_directions", "sweep_sample_size",
    "sweep_regularization",
    "read_dataset", "write_dataset", "LatdFormatError",
]
