import importlib

import eepower

ROW_API = [
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

# the one-row layer and the per-stream references, by defining module: the
# tests and the benchmark tracer reach them there, not on the package
MODULE_ONLY = {
    "allocator": ["GeeProblem", "gee_dinkelbach", "wsee_ascent", "wpee_ascent", "wmee_maxmin", "ee_of"],
    "numerics": ["bisect", "lambert_w0"],
    "channel": ["rng_for", "draw_gains", "draw_matrix"],
}


def test_the_package_exports_the_row_api_and_nothing_else():
    assert sorted(eepower.__all__) == ROW_API
    for name in ROW_API:
        assert hasattr(eepower, name), name
    for module_name, names in MODULE_ONLY.items():
        module = importlib.import_module(f"eepower.{module_name}")
        for name in names:
            assert not hasattr(eepower, name), name
            assert callable(getattr(module, name)), f"{module_name}.{name}"
