"""Texture features and fuzzy nearest-neighbour classifiers for
benign/malignant mass classification on grayscale ROIs."""

from .classifiers import (
    KINDS,
    ClassifierConfig,
    Dataset,
    FitModel,
    Prediction,
    fit,
    kneighbors,
    predict,
    predict_fknn,
    predict_fknne,
    predict_knn,
    predict_knne,
    predict_many,
)
from .evaluation import (
    ComparisonRow,
    ComparisonTable,
    ConfusionCounts,
    EvaluationReport,
    FoldResult,
    Holdout,
    KFold,
    Loocv,
    RocCurve,
    auc,
    compare_classifiers,
    confusion,
    evaluate,
    rates,
    roc_curve,
    stratified_kfold,
)
from .formats import (
    feature_csv_text,
    read_feature_csv,
    report_json_text,
    roc_csv_text,
    write_feature_csv,
    write_roc_csv,
)
from .ingestion import (
    BENIGN,
    MALIGNANT,
    GrayImage,
    RoiSpec,
    crop_roi,
    minmax_normalize,
    parse_mias_index,
    quantize,
    read_pgm,
    write_pgm,
)
from .synthetic import textured_image, two_cluster_dataset
from .texture import (
    DIRECTIONS,
    FEATURE_NAMES,
    ExtractionConfig,
    FeatureVector,
    Glcm,
    Gldm,
    Glrlm,
    compute_glcm,
    compute_gldm,
    compute_glrlm,
    extract_all,
    gldm_features,
    haralick_features,
    runlength_features,
)

__version__ = "0.1.0"
