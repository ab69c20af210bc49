"""Energy-efficient power control: allocation solvers, channel models,
metrics, a brute-force verification oracle, and Monte-Carlo experiment
pipelines with a CSV-emitting CLI."""

__version__ = "0.1.0"

from .allocator import (
    Allocation,
    GeeProblem,
    ee_of,
    eepa,
    gee_dinkelbach,
    gee_rows,
    link_terms,
    water_level,
    wmee_maxmin,
    wpa,
    wpee_ascent,
    wsee_ascent,
)
from .channel import draw_gain_rows, draw_gains, draw_matrix, matrices_from_uniforms, rng_for, stream_uniforms
from .errors import InfeasibleError, PowerControlError
from .experiments import CurveSet, ExperimentSpec, default_spec, run
from .metrics import MultiLinkReport, evaluate, jain_index, trace_ee_se
from .numerics import bisect, lambert_w0, svd_gains
from .oracle import GridSpec, grid_argmax

__all__ = [
    "Allocation",
    "CurveSet",
    "ExperimentSpec",
    "GeeProblem",
    "GridSpec",
    "InfeasibleError",
    "MultiLinkReport",
    "PowerControlError",
    "bisect",
    "default_spec",
    "draw_gain_rows",
    "draw_gains",
    "draw_matrix",
    "ee_of",
    "eepa",
    "evaluate",
    "gee_dinkelbach",
    "gee_rows",
    "grid_argmax",
    "jain_index",
    "lambert_w0",
    "link_terms",
    "matrices_from_uniforms",
    "rng_for",
    "run",
    "stream_uniforms",
    "svd_gains",
    "trace_ee_se",
    "water_level",
    "wmee_maxmin",
    "wpa",
    "wpee_ascent",
    "wsee_ascent",
]
