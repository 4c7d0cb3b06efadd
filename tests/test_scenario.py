"""Scenario/sweep document validation and assembly."""

import copy
import json
import math

import numpy as np
import pytest

from sirblab import grid as grid_module
from sirblab import kernels
from sirblab.integrator import BumpInit, ModeInit, RandomInit, SimConfig
from sirblab.model import ModelParams
from sirblab.stability import DiffusionMatrix, gershgorin_tail, jacobian
from sirblab.steady import trivial_states
from sirblab.scenario import (
    DEFAULT_MODE_COUNT,
    LENGTH_RANGE,
    MAX_AXIS_CELLS,
    MAX_GRID_CELLS,
    MAX_MODE_COUNT,
    ConfigError,
    analysis_mode_count,
    build_sim_config,
    check_state_products,
    diffusion_matrix,
    load_json,
    parse_coefficients,
    parse_grid,
    parse_initial,
    parse_params,
    parse_sweep,
)

from common import REF


def scenario_doc():
    return {
        "name": "case",
        "params": dict(REF),
        "grid": {"lengths": [2.0], "cells": [32]},
        "coefficients": {
            "a1": {"kind": "constant", "value": 0.05},
            "a2": {"kind": "constant", "value": 0.05},
            "a3": {"kind": "constant", "value": 0.05},
            "a4": {"kind": "constant", "value": 0.01},
        },
        "initial": {"kind": "constant", "values": [1.0, 0.5, 0.2, 0.5]},
        "run": {"t_end": 1.0},
    }


def sweep_doc():
    return {
        "name": "scan",
        "base": scenario_doc(),
        "axes": [{"param": "beta2", "values": [0.4, 0.5]},
                 {"param": "d4", "values": [0.9, 1.0, 1.1]}],
        "outputs": ["endemic_exists"],
    }


def err_path(excinfo):
    return excinfo.value.path


# ---------------------------------------------------------------------------
# Individual section parsers
# ---------------------------------------------------------------------------

def test_params_errors_name_the_field():
    doc = scenario_doc()
    doc["params"]["beta1"] = -0.3
    with pytest.raises(ConfigError, match="beta1"):
        parse_params(doc)

    doc = scenario_doc()
    doc["params"]["beta1"] = "0.3"
    with pytest.raises(ConfigError) as e:
        parse_params(doc)
    assert err_path(e) == "params.beta1"

    doc = scenario_doc()
    del doc["params"]["xi"]
    with pytest.raises(ConfigError, match="xi"):
        parse_params(doc)

    doc = scenario_doc()
    doc["params"]["beta3"] = 1.0
    with pytest.raises(ConfigError, match="beta3"):
        parse_params(doc)


def test_grid_section():
    doc = scenario_doc()
    g = parse_grid(doc)
    assert g.lengths == (2.0,) and g.cells == (32,)

    doc["grid"]["cells"] = [32.5]
    with pytest.raises(ConfigError) as e:
        parse_grid(doc)
    assert err_path(e) == "grid.cells[0]"

    doc = scenario_doc()
    doc["grid"]["spacing"] = 0.1
    with pytest.raises(ConfigError, match="spacing"):
        parse_grid(doc)

    doc = scenario_doc()
    del doc["grid"]["lengths"]
    with pytest.raises(ConfigError) as e:
        parse_grid(doc)
    assert err_path(e) == "grid.lengths"


def test_grid_lengths_are_bounded_inclusively():
    lo, hi = LENGTH_RANGE
    doc = scenario_doc()
    doc["grid"] = {"lengths": [lo, hi], "cells": [3, 3]}
    assert parse_grid(doc).lengths == (lo, hi)
    for k, bad in [(0, math.nextafter(lo, 0.0)), (1, math.nextafter(hi, math.inf)),
                   (0, 0.0), (1, -1.0)]:
        doc["grid"]["lengths"] = [lo, hi]
        doc["grid"]["lengths"][k] = bad
        with pytest.raises(ConfigError, match="must lie in") as e:
            parse_grid(doc)
        assert err_path(e) == f"grid.lengths[{k}]"


def test_coefficient_section():
    doc = scenario_doc()
    grid = parse_grid(doc)

    bad = copy.deepcopy(doc)
    bad["coefficients"]["a2"]["value"] = -0.05
    with pytest.raises(ConfigError) as e:
        parse_coefficients(bad, grid)
    assert err_path(e) == "coefficients.a2"

    bad = copy.deepcopy(doc)
    del bad["coefficients"]["a4"]
    with pytest.raises(ConfigError) as e:
        parse_coefficients(bad, grid)
    assert err_path(e) == "coefficients.a4"

    bad = copy.deepcopy(doc)
    bad["coefficients"]["a5"] = {"kind": "constant", "value": 0.1}
    with pytest.raises(ConfigError, match="a5"):
        parse_coefficients(bad, grid)

    bad = copy.deepcopy(doc)
    bad["coefficients"]["a1"]["kind"] = "linear"
    with pytest.raises(ConfigError) as e:
        parse_coefficients(bad, grid)
    assert err_path(e) == "coefficients.a1.kind"


def test_coefficient_profile_and_cells_kinds():
    doc = scenario_doc()
    grid = parse_grid(doc)
    doc["coefficients"]["a1"] = {"kind": "profile", "profile": "cosine",
                                 "base": 0.1, "amplitude": 0.05}
    doc["coefficients"]["a2"] = {"kind": "cells", "values": [0.1] * 32}
    coeffs = parse_coefficients(doc, grid)
    lo, hi = coeffs[0].bounds(grid)
    assert lo > 0.05 and hi < 0.15  # cell centers never reach the extremes

    # profile that dips negative somewhere on the grid is caught at parse time
    doc["coefficients"]["a1"]["amplitude"] = 0.2
    with pytest.raises(ConfigError) as e:
        parse_coefficients(doc, grid)
    assert err_path(e) == "coefficients.a1"

    # typo'd profile argument names the coefficient, not a KeyError
    doc["coefficients"]["a1"] = {"kind": "profile", "profile": "cosine",
                                 "mean": 0.1}
    with pytest.raises(ConfigError, match="mean") as e:
        parse_coefficients(doc, grid)
    assert err_path(e) == "coefficients.a1"


def test_checked_profile_arguments_give_the_profile_its_samples():
    # the hetero-2d profiles, and integers where floats are allowed
    doc = scenario_doc()
    doc["grid"] = {"lengths": [1.0, 1.0], "cells": [12, 12]}
    grid = parse_grid(doc)
    specs = [
        {"profile": "cosine", "base": 0.015, "amplitude": 0.0075, "modes": [1, 2]},
        {"profile": "gaussian", "base": 0.015, "amplitude": 0.03, "width": 0.3,
         "center": [0.4, 0.6]},
        {"profile": "gaussian", "base": 1, "amplitude": 2, "width": 1, "center": [0, 1]},
    ]
    for spec in specs:
        doc["coefficients"]["a1"] = {"kind": "profile", **spec}
        parsed = parse_coefficients(doc, grid)[0].materialize(grid)
        args = {k: v for k, v in spec.items() if k != "profile"}
        raw = grid_module.CoefficientField.from_profile(spec["profile"], **args)
        assert parsed.tobytes() == raw.materialize(grid).tobytes()


@pytest.mark.parametrize("spec", [
    {"kind": "cells", "values": [0.05] * 32},
    {"kind": "profile", "profile": "cosine", "base": 0.05, "amplitude": 0.0},
    {"kind": "profile", "profile": "gaussian", "base": 0.05, "amplitude": 0.0},
], ids=["cells", "flat-cosine", "flat-gaussian"])
def test_coefficient_equal_on_every_cell_is_constant(spec):
    # the solver's test (kernels.prepare_coefficient): min == max on the grid
    doc = scenario_doc()
    grid = parse_grid(doc)
    doc["coefficients"]["a1"] = spec
    coeffs = parse_coefficients(doc, grid)
    assert coeffs[0].kind == "constant" and coeffs[0].value == 0.05
    assert diffusion_matrix(coeffs).as_array().tolist() == [0.05, 0.05, 0.05, 0.01]


def test_initial_section_kinds():
    doc = scenario_doc()
    p = parse_params(doc)
    assert parse_initial(doc, p).values == (1.0, 0.5, 0.2, 0.5)

    doc["initial"] = {"kind": "bump", "base": [1, 0, 0, 0],
                      "amplitude": [0.1, 0, 0, 0]}
    assert isinstance(parse_initial(doc, p), BumpInit)

    doc["initial"] = {"kind": "random", "low": [0, 0, 0, 0],
                      "high": [1, 1, 1, 1], "seed": 3}
    init = parse_initial(doc, p)
    assert isinstance(init, RandomInit) and init.seed == 3
    assert parse_initial(doc, p, seed_override=11).seed == 11

    doc["initial"] = {"kind": "drift"}
    with pytest.raises(ConfigError) as e:
        parse_initial(doc, p)
    assert err_path(e) == "initial.kind"


def test_mode_initial_resolves_state_tags():
    doc = scenario_doc()
    p = parse_params(doc)
    doc["initial"] = {"kind": "mode", "state": "Z4-branch-S2",
                      "epsilon": 0.01, "mode": 1}
    init = parse_initial(doc, p)
    assert isinstance(init, ModeInit)
    assert init.base[1] > 0.0  # endemic state has infected mass

    doc["initial"]["state"] = "Z9"
    with pytest.raises(ConfigError) as e:
        parse_initial(doc, p)
    assert err_path(e) == "initial.state"
    assert "Z1" in str(e.value) and "Z4-branch-S2" in str(e.value)

    # base and state are mutually exclusive
    doc["initial"]["state"] = "Z2"
    doc["initial"]["base"] = [1, 0, 0, 0]
    with pytest.raises(ConfigError, match="exactly one"):
        parse_initial(doc, p)


@pytest.mark.parametrize("rates", [{"beta2": 2.0}, {"d2": 0.0, "d3": 0.0}],
                         ids=["bracket-failure", "degenerate-removal"])
def test_unresolvable_state_tag_names_initial_state(rates):
    # the steady states behind a tag cannot be computed for these rates:
    # a ConfigError at initial.state, not the solver's exception
    doc = scenario_doc()
    doc["params"].update(rates)
    doc["initial"] = {"kind": "mode", "state": "Z4-branch-S2",
                      "epsilon": 0.01, "mode": 1}
    with pytest.raises(ConfigError) as e:
        build_sim_config(doc)
    assert err_path(e) == "initial.state"
    assert "Z4-branch-S2" in str(e.value)


def test_initial_base_must_have_four_entries():
    doc = scenario_doc()
    p = parse_params(doc)
    doc["initial"] = {"kind": "bump", "base": [1, 0, 0],
                      "amplitude": [0.1, 0, 0, 0]}
    with pytest.raises(ConfigError) as e:
        parse_initial(doc, p)
    assert err_path(e) == "initial.base"


# ---------------------------------------------------------------------------
# Whole-document assembly
# ---------------------------------------------------------------------------

def test_build_sim_config_happy_path():
    cfg = build_sim_config(scenario_doc())
    assert isinstance(cfg, SimConfig)
    assert cfg.t_end == 1.0 and cfg.adaptive


def test_build_sim_config_run_errors():
    doc = scenario_doc()
    doc["run"]["t_end"] = -1.0
    with pytest.raises(ConfigError) as e:
        build_sim_config(doc)
    assert err_path(e) == "run"

    doc = scenario_doc()
    doc["run"]["warmup"] = 5
    with pytest.raises(ConfigError, match="warmup"):
        build_sim_config(doc)

    doc = scenario_doc()
    doc["run"]["adaptive"] = "yes"
    with pytest.raises(ConfigError) as e:
        build_sim_config(doc)
    assert err_path(e) == "run.adaptive"

    doc = scenario_doc()
    del doc["run"]
    with pytest.raises(ConfigError) as e:
        build_sim_config(doc)
    assert err_path(e) == "run"


def _bound_mode_enumeration(monkeypatch):
    """Make every neumann_modes lookup fail above MAX_MODE_COUNT modes."""
    real = grid_module.neumann_modes

    def bounded(grid, count):
        if count > MAX_MODE_COUNT:
            raise AssertionError(f"enumerated {count} modes before validation")
        return real(grid, count)

    for target in ("sirblab.grid.neumann_modes", "sirblab.integrator.neumann_modes",
                   "sirblab.scenario.neumann_modes"):
        monkeypatch.setattr(target, bounded, raising=False)


def _mode_doc(cells=64, record_modes=(), initial_mode=None):
    doc = scenario_doc()
    doc["grid"]["cells"] = [cells]
    doc["run"]["record_modes"] = list(record_modes)
    if initial_mode is not None:
        doc["initial"] = {"kind": "mode", "state": "Z4-branch-S2",
                          "epsilon": 0.01, "mode": initial_mode}
    return doc


@pytest.mark.parametrize("index", [MAX_MODE_COUNT, 400000, 10**12])
def test_record_mode_index_above_cap_is_rejected_before_enumeration(monkeypatch, index):
    _bound_mode_enumeration(monkeypatch)
    with pytest.raises(ConfigError) as e:
        build_sim_config(_mode_doc(record_modes=[0, index]))
    assert err_path(e) == "run.record_modes[1]"
    assert str(MAX_MODE_COUNT) in str(e.value)


@pytest.mark.parametrize("index", [MAX_MODE_COUNT, 400000, 10**12])
def test_initial_mode_index_above_cap_is_rejected_before_enumeration(monkeypatch, index):
    _bound_mode_enumeration(monkeypatch)
    with pytest.raises(ConfigError) as e:
        build_sim_config(_mode_doc(initial_mode=index))
    assert err_path(e) == "initial.mode"
    assert str(MAX_MODE_COUNT) in str(e.value)


def test_unresolvable_modes_name_the_field(monkeypatch):
    _bound_mode_enumeration(monkeypatch)
    # 64 cells resolve the cosines j = 0..63 and nothing above.
    cfg = build_sim_config(_mode_doc(record_modes=[0, 63], initial_mode=63))
    assert cfg.record_modes == (0, 63) and cfg.initial.mode == 63
    with pytest.raises(ConfigError, match="not resolvable") as e:
        build_sim_config(_mode_doc(record_modes=[1, 2, 64]))
    assert err_path(e) == "run.record_modes[2]"
    with pytest.raises(ConfigError, match="not resolvable") as e:
        build_sim_config(_mode_doc(initial_mode=64))
    assert err_path(e) == "initial.mode"
    with pytest.raises(ConfigError) as e:
        build_sim_config(_mode_doc(record_modes=[0, -1]))
    assert err_path(e) == "run.record_modes[1]"


def test_unresolvable_2d_mode_below_the_cell_count_is_rejected():
    # On 3 x 8 cells of the unit square mode 10, cos(3*pi*x), needs a fourth
    # x cell, although the grid holds 24 cells; mode 9, cos(3*pi*y), is
    # resolved.
    doc = _mode_doc(record_modes=[9])
    doc["grid"] = {"lengths": [1.0, 1.0], "cells": [3, 8]}
    assert build_sim_config(doc).record_modes == (9,)
    doc["run"]["record_modes"] = [9, 10]
    with pytest.raises(ConfigError, match="not resolvable") as e:
        build_sim_config(doc)
    assert err_path(e) == "run.record_modes[1]"


def forbid_grid_allocation(monkeypatch):
    """Make every per-cell or per-axis allocation of a grid fail."""
    def forbidden(*args, **kwargs):
        raise AssertionError("allocated grid-sized data before the grid was bounded")

    monkeypatch.setattr(kernels, "axis_spectrum", forbidden)
    monkeypatch.setattr(grid_module.CoefficientField, "materialize", forbidden)


@pytest.mark.parametrize("cells,path,message", [
    ([MAX_AXIS_CELLS + 1], "grid.cells[0]", "at most"),
    ([10**12], "grid.cells[0]", "at most"),
    ([8, MAX_AXIS_CELLS + 1], "grid.cells[1]", "at most"),
    ([4 * MAX_AXIS_CELLS, 8], "grid.cells[0]", "at most"),
    # the product of two negative axes is large, but the axes are the fault
    ([-3000, -3000], "grid.cells[0]", "at least 3"),
    ([8, 2], "grid.cells[1]", "at least 3"),
])
def test_grid_axis_outside_caps_is_rejected_before_allocation(monkeypatch, cells, path,
                                                               message):
    forbid_grid_allocation(monkeypatch)
    doc = scenario_doc()
    doc["grid"] = {"lengths": [1.0] * len(cells), "cells": cells}
    with pytest.raises(ConfigError, match=message) as e:
        build_sim_config(doc)
    assert err_path(e) == path
    sweep = sweep_doc()
    sweep["base"] = doc
    with pytest.raises(ConfigError) as e:
        parse_grid(parse_sweep(sweep)[0])
    assert err_path(e) == path


def test_grid_total_cells_above_cap_is_rejected_before_allocation(monkeypatch):
    forbid_grid_allocation(monkeypatch)
    rows = MAX_GRID_CELLS // MAX_AXIS_CELLS
    doc = scenario_doc()
    doc["grid"] = {"lengths": [1.0, 1.0], "cells": [MAX_AXIS_CELLS, rows + 1]}
    with pytest.raises(ConfigError, match=str(MAX_GRID_CELLS)) as e:
        build_sim_config(doc)
    assert err_path(e) == "grid.cells"
    # at the caps exactly the grid is accepted (parse_grid allocates nothing)
    doc["grid"]["cells"] = [MAX_AXIS_CELLS, rows]
    assert parse_grid(doc).ncells == MAX_AXIS_CELLS * rows <= MAX_GRID_CELLS
    doc["grid"] = {"lengths": [1.0], "cells": [MAX_AXIS_CELLS]}
    assert parse_grid(doc).cells == (MAX_AXIS_CELLS,)


def test_shipped_scenarios_assemble():
    for name in ("endemic_1d", "turing_point", "damped_2d"):
        doc = load_json(f"scenarios/{name}.json")
        cfg = build_sim_config(doc)
        assert cfg.t_end > 0.0


def test_analysis_mode_count():
    assert analysis_mode_count({}) == DEFAULT_MODE_COUNT
    assert analysis_mode_count({"analysis": {"modes": 8}}) == 8
    assert analysis_mode_count({"analysis": {"modes": 8}}, override=5) == 5
    with pytest.raises(ConfigError) as e:
        analysis_mode_count({"analysis": {"modes": 0}})
    assert err_path(e) == "analysis.modes"
    with pytest.raises(ConfigError):
        analysis_mode_count({}, override=0)


def test_analysis_mode_count_is_capped():
    assert analysis_mode_count({}, override=MAX_MODE_COUNT) == MAX_MODE_COUNT
    with pytest.raises(ConfigError) as e:
        analysis_mode_count({"analysis": {"modes": MAX_MODE_COUNT + 1}})
    assert err_path(e) == "analysis.modes"
    with pytest.raises(ConfigError) as e:
        analysis_mode_count({"analysis": {"modes": 8}}, override=10**9)
    assert err_path(e) == "--modes"


def test_diffusion_matrix_requires_constant_coefficients():
    doc = scenario_doc()
    grid = parse_grid(doc)
    coeffs = parse_coefficients(doc, grid)
    m = diffusion_matrix(coeffs)
    assert m.as_array().tolist() == [0.05, 0.05, 0.05, 0.01]

    doc["coefficients"]["a1"] = {"kind": "profile", "profile": "cosine",
                                 "base": 0.1, "amplitude": 0.05}
    varying = parse_coefficients(doc, grid)
    with pytest.raises(ConfigError) as e:
        diffusion_matrix(varying)
    assert err_path(e) == "coefficients"


def test_load_json_reports_position(tmp_path):
    f = tmp_path / "broken.json"
    f.write_text('{\n  "params": {,}\n}\n')
    with pytest.raises(ConfigError, match=r"line 2 column 14"):
        load_json(str(f))

    f2 = tmp_path / "top.json"
    f2.write_text("[1, 2]")
    with pytest.raises(ConfigError, match="object"):
        load_json(str(f2))


# ---------------------------------------------------------------------------
# Sweep documents
# ---------------------------------------------------------------------------

def test_sweep_happy_path():
    base, axes, outputs, name = parse_sweep(sweep_doc())
    assert name == "scan"
    assert [a[0] for a in axes] == ["beta2", "d4"]
    assert axes[1][1] == [0.9, 1.0, 1.1]
    assert outputs == ["endemic_exists"]


def test_sweep_without_axes_is_a_single_point():
    doc = sweep_doc()
    del doc["axes"]
    base, axes, outputs, _ = parse_sweep(doc)
    assert axes == []

    doc["axes"] = []
    _, axes, _, _ = parse_sweep(doc)
    assert axes == []


def test_sweep_axis_errors():
    doc = sweep_doc()
    doc["axes"][1]["param"] = "beta9"
    with pytest.raises(ConfigError) as e:
        parse_sweep(doc)
    assert err_path(e) == "axes[1].param"

    doc = sweep_doc()
    doc["axes"][1]["param"] = "beta2"
    with pytest.raises(ConfigError, match="duplicate"):
        parse_sweep(doc)

    doc = sweep_doc()
    doc["axes"][0]["values"] = []
    with pytest.raises(ConfigError) as e:
        parse_sweep(doc)
    assert err_path(e) == "axes[0].values"

    doc = sweep_doc()
    doc["axes"] = [{"param": n, "values": [1.0]}
                   for n in ("b0", "k1", "beta1", "beta2")]
    with pytest.raises(ConfigError, match="at most 3"):
        parse_sweep(doc)


def test_sweep_size_cap():
    doc = sweep_doc()
    doc["axes"] = [{"param": "b0", "values": [float(i) + 1 for i in range(50)]},
                   {"param": "k1", "values": [float(i) + 1 for i in range(50)]},
                   {"param": "g0", "values": [float(i) + 1 for i in range(50)]}]
    with pytest.raises(ConfigError, match="125000"):
        parse_sweep(doc)


def test_sweep_validates_base_eagerly():
    doc = sweep_doc()
    doc["base"]["params"]["d2"] = -0.5
    with pytest.raises(ConfigError, match="d2"):
        parse_sweep(doc)


def test_sweep_roundtrips_through_json():
    text = json.dumps(sweep_doc())
    base, axes, outputs, name = parse_sweep(json.loads(text))
    assert len(axes) == 2


def test_cubic_products_are_bounded_where_the_squares_are_not_enough():
    # Entries of 1e104 in the (S, I, R) block: every square is finite, but
    # the Z3 cubic's p*q would overflow. Z1 and Z2 form no cubic.
    p = ModelParams(**{**REF, "sigma": 1e104, "gamma": 1e104, "d3": 1e104})
    diff = DiffusionMatrix(0.05, 0.05, 0.05, 0.01)
    spectrum = grid_module.neumann_modes(grid_module.Grid((2.0,), (64,)), 8)
    z1, z2, z3 = trivial_states(p)
    with pytest.raises(ConfigError,
                       match=r"^params: state Z3: rates too large for a mode analysis"):
        check_state_products(jacobian(z3.value, p, z3.tag), diff, spectrum)
    for z in (z1, z2):
        check_state_products(jacobian(z.value, p, z.tag), diff, spectrum)


def test_tail_threshold_check_agrees_with_the_analyzer_at_the_edge():
    # The check repeats gershgorin_tail's float operations, so right at the
    # overflow edge it refuses exactly the coefficients whose tail is inf.
    p = ModelParams(**REF)
    spectrum = grid_module.neumann_modes(grid_module.Grid((2.0,), (64,)), 8)
    jac = jacobian(trivial_states(p)[0].value, p, "Z1")
    j = jac.matrix
    reach = float(j[0, 0] + (np.abs(j).sum(axis=1) - np.abs(j.diagonal()))[0])
    assert reach > 0.0
    edge = reach / 1.7976931348623157e308
    refused = 0
    for a1 in np.nextafter(edge, 1.0) * (1.0 + np.arange(-4, 5) * 2.0 ** -52):
        diff = DiffusionMatrix(float(a1), 0.05, 0.05, 0.01)
        with np.errstate(over="ignore"):
            overflows = math.isinf(gershgorin_tail(jac, diff))
        if overflows:
            refused += 1
            with pytest.raises(ConfigError, match=r"^coefficients\.a1: .* Gershgorin tail"):
                check_state_products(jac, diff, spectrum)
        else:
            check_state_products(jac, diff, spectrum)
    assert 0 < refused < 9
