"""Variational registration and fusion of airborne remote sensing rasters.

The package aligns image pairs from heterogeneous sensors (LiDAR intensity
grids, hyperspectral composites, frame photos) with a non-parametric
curvature-regularized deformation model driven by intensity distance
measures, plus parametric affine baselines, and provides the surrounding
geospatial plumbing: rasterization, photo footprints, spectral
resampling and mosaicking.
"""

from .affine import AffineParams, affine_to_displacement, register_affine
from .curvature import SemiImplicitOperator, bilaplacian, curvature_energy
from .errors import (
    DegenerateImageError,
    DivergenceError,
    FormatError,
    FuseRegError,
    GeometryError,
    IntensityRangeError,
    ParameterError,
    PlacementError,
)
from .evaluation import (
    ExperimentScenario,
    MetricReport,
    SyntheticDeformation,
    checkerboard,
    difference_map,
    endpoint_error,
    mean_abs_difference,
    run_experiment,
    synthetic_texture,
)
from .geo import (
    Footprint,
    HyperspectralCube,
    LidarPointCloud,
    PhotoMetadata,
    grey_composite,
    mosaic,
    photo_footprint,
    rasterize_lidar,
    resample_cube,
    rgb_composite,
    select_band,
)
from .grid import (
    DisplacementField,
    GridGeometry,
    ScalarImage,
    build_pyramid,
    normalize_intensity,
    prolong,
    resample_to_geometry,
    warp,
)
from .nonparametric import (
    RegistrationConfig,
    RegistrationTrace,
    objective,
    register_level,
    register_multilevel,
)
from .similarity import NgfField, SimilarityResult, mi, ncc, ngf, ngf_field, ssd

__version__ = "0.1.0"

__all__ = [
    "AffineParams",
    "DegenerateImageError",
    "DisplacementField",
    "DivergenceError",
    "ExperimentScenario",
    "Footprint",
    "FormatError",
    "FuseRegError",
    "GeometryError",
    "GridGeometry",
    "HyperspectralCube",
    "IntensityRangeError",
    "LidarPointCloud",
    "MetricReport",
    "NgfField",
    "ParameterError",
    "PhotoMetadata",
    "PlacementError",
    "RegistrationConfig",
    "RegistrationTrace",
    "ScalarImage",
    "SemiImplicitOperator",
    "SimilarityResult",
    "SyntheticDeformation",
    "affine_to_displacement",
    "bilaplacian",
    "build_pyramid",
    "checkerboard",
    "curvature_energy",
    "difference_map",
    "endpoint_error",
    "grey_composite",
    "mean_abs_difference",
    "mi",
    "mosaic",
    "ncc",
    "ngf",
    "ngf_field",
    "normalize_intensity",
    "objective",
    "photo_footprint",
    "prolong",
    "rasterize_lidar",
    "register_affine",
    "register_level",
    "register_multilevel",
    "resample_cube",
    "resample_to_geometry",
    "rgb_composite",
    "run_experiment",
    "select_band",
    "ssd",
    "synthetic_texture",
    "warp",
]
