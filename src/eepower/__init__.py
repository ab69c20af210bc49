"""Energy-efficient power control: allocation solvers, channel models,
metrics, a brute-force verification oracle, and Monte-Carlo experiment
pipelines with a CSV-emitting CLI.

The package exports the (rows, links) array API: the row solvers, the block
draws and the functions built on them."""

__version__ = "0.1.0"

from .allocator import Allocation, eepa, gee_rows, link_terms, water_level, wmee_rows, wpa, wpee_rows, wsee_rows
from .channel import draw_gain_rows, matrices_from_uniforms, stream_uniforms
from .errors import InfeasibleError, PowerControlError
from .experiments import CurveSet, ExperimentSpec, default_spec, run
from .metrics import MultiLinkReport, evaluate, jain_index, trace_ee_se
from .numerics import svd_gains
from .oracle import GridSpec, grid_argmax

__all__ = [
    "Allocation",
    "CurveSet",
    "ExperimentSpec",
    "GridSpec",
    "InfeasibleError",
    "MultiLinkReport",
    "PowerControlError",
    "default_spec",
    "draw_gain_rows",
    "eepa",
    "evaluate",
    "gee_rows",
    "grid_argmax",
    "jain_index",
    "link_terms",
    "matrices_from_uniforms",
    "run",
    "stream_uniforms",
    "svd_gains",
    "trace_ee_se",
    "water_level",
    "wmee_rows",
    "wpa",
    "wpee_rows",
    "wsee_rows",
]
