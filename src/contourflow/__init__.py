"""Distance-transform driven active contours: force fields, automatic
circle initialization, semi-implicit evolution, per-image parameter
learning, and segmentation metrics."""

from .autoinit import (circle_to_contour, circumscribed_circle, inscribed_circle,
                       minimal_enclosing_circle)
from .edt import edt_from_sites, mask_to_dt
from .fields import (Circle, Contour, boundary_mask, boundary_pixels, central_gradient,
                     rasterize, resample_closed, signed_area)
from .flow import ForceField, dvf, energy_gradient_field, lcdvf
from .learning import (FitResult, align_cyclic, contour_from_mask, fit_parameters,
                       subgrad_alpha, subgrad_beta)
from .metrics import MetricsReport, boundf, dice, evaluate, iou
from .snake import ContourPath, EvolutionTrace, EvolveError, ParameterSet, SnakeConfig, evolve

__all__ = [
    "Circle", "Contour", "ContourPath", "EvolutionTrace", "EvolveError", "FitResult",
    "ForceField", "MetricsReport", "ParameterSet", "SnakeConfig",
    "align_cyclic", "boundary_mask",
    "boundary_pixels", "boundf", "central_gradient", "circle_to_contour",
    "circumscribed_circle", "contour_from_mask", "dice", "dvf",
    "edt_from_sites", "energy_gradient_field",
    "evaluate", "evolve", "fit_parameters", "inscribed_circle",
    "iou", "lcdvf", "mask_to_dt",
    "minimal_enclosing_circle", "rasterize", "resample_closed", "signed_area",
    "subgrad_alpha", "subgrad_beta",
]
