import configparser

import numpy as np
import pytest

from biofilm_fv import harness
from biofilm_fv.cli import _CONFIG_KEYS, load_config, main
from biofilm_fv.harness import ConfigurationError
from biofilm_fv.mesh import write_triangle_mesh_file

from pathlib import Path

import biofilm_fv

ACUTE_FIXTURE = str(Path(biofilm_fv.__file__).parent / "data" / "acute_patch.mesh")


def write_config(path, text):
    # a lone surrogate such as "\udce9" becomes the single byte 0xe9
    path.write_bytes(text.encode("utf-8", "surrogateescape"))
    return str(path)


RUN_1D = """
[experiment]
name = smoke-1d
model = case1
alphas = 1, 1
u_d = 0.1, 0.1
initial = bumps-1d
t_end = 1e-4

[mesh]
dimension = 1
cells = 20
dirichlet = left

[time]
policy = fixed
dt = 1e-5

[output]
snapshots = 1e-4
"""


def test_run_smoke(tmp_path, capsys):
    cfg = write_config(tmp_path / "run.cfg", RUN_1D)
    code = main(["run", "--config", cfg, "--out", str(tmp_path / "out")])
    assert code == 0
    out_dir = tmp_path / "out" / "smoke-1d"
    assert (out_dir / "entropy.csv").exists()
    assert (out_dir / "snapshot_0.0001.csv").exists()
    assert (out_dir / "run_metadata.json").exists()


def test_run_rejects_saturated_boundary(tmp_path, capsys):
    cfg = write_config(tmp_path / "bad.cfg", RUN_1D.replace("u_d = 0.1, 0.1", "u_d = 0.6, 0.5"))
    code = main(["run", "--config", cfg, "--out", str(tmp_path / "out")])
    assert code == 2
    assert "sum to less than 1" in capsys.readouterr().err


def test_strict_theory_rejects_unequal_diffusivities(tmp_path, capsys):
    cfg = write_config(tmp_path / "a.cfg", RUN_1D.replace("alphas = 1, 1", "alphas = 1, 10"))
    code = main(["run", "--config", cfg, "--out", str(tmp_path / "out"), "--strict-theory"])
    assert code == 2
    assert "equal" in capsys.readouterr().err


def test_strict_theory_accepts_equal_non_unit_diffusivities(tmp_path):
    # the paper's hypothesis is alpha_1 = ... = alpha_n, not alpha_i = 1
    cfg = write_config(tmp_path / "a.cfg", RUN_1D.replace("alphas = 1, 1", "alphas = 2, 2"))
    assert main(["run", "--config", cfg, "--out", str(tmp_path / "out"), "--strict-theory"]) == 0


def test_convergence_guard_too_few_resolutions(tmp_path, capsys):
    cfg = write_config(
        tmp_path / "conv.cfg",
        RUN_1D + "\n[convergence]\nresolutions = 10, 20\nreference = 40\n",
    )
    code = main(["convergence", "--config", cfg, "--out", str(tmp_path / "out")])
    assert code == 2


def test_convergence_small(tmp_path, capsys):
    cfg = write_config(
        tmp_path / "conv.cfg",
        RUN_1D + "\n[convergence]\nresolutions = 8, 16, 32, 64\nreference = 128\n",
    )
    code = main(["convergence", "--config", cfg, "--out", str(tmp_path / "out")])
    assert code == 0
    assert "fitted spatial order" in capsys.readouterr().out
    assert (tmp_path / "out" / "smoke-1d" / "convergence.csv").exists()


def test_check_mesh_accepts_acute_fixture(capsys):
    code = main(["check-mesh", ACUTE_FIXTURE])
    assert code == 0
    out = capsys.readouterr().out
    assert "admissible" in out
    assert "xi:" in out


def test_check_mesh_rejects_right_triangles(tmp_path, capsys):
    path = tmp_path / "right.mesh"
    write_triangle_mesh_file(
        path,
        np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]]),
        np.array([[0, 1, 2], [0, 2, 3]]),
    )
    code = main(["check-mesh", str(path)])
    assert code == 4
    assert "triangle" in capsys.readouterr().err


def test_check_mesh_missing_file(capsys):
    assert main(["check-mesh", "/nonexistent/m.mesh"]) == 2


# two equilateral triangles sharing the edge (0, 1)
RHOMBUS = ("nodes 4 triangles 2\n0.0 0.0\n1.0 0.0\n0.5 0.8660254037844386\n"
           "0.5 -0.8660254037844386\n0 1 2\n0 3 1\n")
MALFORMED_MESHES = {
    "header-count": RHOMBUS.replace("nodes 4", "nodes x"),
    "coordinate": RHOMBUS.replace("1.0 0.0", "abc 0.0"),
    "triangle-index": RHOMBUS.replace("0 1 2", "0 1 2.5"),
    "nan-coordinate": RHOMBUS.replace("0.5 0.8660254037844386", "0.5 nan"),
    "not-ascii": RHOMBUS.replace("1.0 0.0", "1.0 0.0\u00e9"),
}


@pytest.mark.parametrize("name", sorted(MALFORMED_MESHES))
def test_check_mesh_rejects_malformed_file(tmp_path, capsys, name):
    path = tmp_path / "bad.mesh"
    path.write_text(MALFORMED_MESHES[name], encoding="utf-8")
    code = main(["check-mesh", str(path)])
    assert code == 4
    err = capsys.readouterr().err
    assert err.startswith("inadmissible mesh:") and "Traceback" not in err


RUN_2D = RUN_1D.replace("initial = bumps-1d", "initial = bumps-2d").replace(
    "dimension = 1\ncells = 20\ndirichlet = left", "dimension = 2\nnx = 4\nny = 4\ndirichlet = y=1"
)
CONVERGENCE_1D = RUN_1D + "\n[convergence]\nresolutions = 8, 16, 32, 64\nreference = 128\n"
CONVERGENCE_CASE2 = (Path(__file__).parents[1] / "configs" / "convergence-case2.cfg").read_text(
    encoding="ascii")
BAD_CONFIGS = {
    "dimension-word": ("run", RUN_1D.replace("dimension = 1", "dimension = two")),
    "dimension-3": ("run", RUN_2D.replace("dimension = 2", "dimension = 3")),
    "resolution-word": ("convergence", CONVERGENCE_1D.replace("8, 16", "8, x")),
    "zero-cells": ("run", RUN_1D.replace("cells = 20", "cells = 0")),
    "zero-nx": ("run", RUN_2D.replace("nx = 4", "nx = 0")),
    "negative-dt": ("run", RUN_1D.replace("dt = 1e-5", "dt = -1e-5")),
    "zero-newton-tol": ("run", RUN_1D.replace("dt = 1e-5", "dt = 1e-5\nnewton_tol = 0")),
    "zero-newton-iters": ("run", RUN_1D.replace("dt = 1e-5", "dt = 1e-5\nnewton_max_iters = 0")),
    "dirichlet-1d-side": ("run", RUN_1D.replace("dirichlet = left", "dirichlet = top")),
    "dirichlet-2d-tag": ("run", RUN_2D.replace("dirichlet = y=1", "dirichlet = y=2")),
    "unknown-key": ("run", RUN_1D.replace("cells = 20", "cell = 20")),
    "unknown-section": ("run", RUN_1D.replace("[time]", "[tme]")),
    "duplicate-key": ("run", RUN_1D.replace("cells = 20", "cells = 20\ncells = 40")),
    "default-section": ("run", "[DEFAULT]\nt_end = 2e-5\n" + RUN_1D),
    "custom-indicator": ("run", RUN_1D.replace("bumps-1d", "custom-indicator")),
    "not-utf8": ("run", RUN_1D.replace("name = smoke-1d", "name = smoke-1d\udce9")),
    "negative-snapshot": ("run", RUN_1D.replace("snapshots = 1e-4", "snapshots = -1, 0, 1e-5")),
    "nan-t-end": ("run", RUN_1D.replace("t_end = 1e-4", "t_end = nan")),
    "nan-u-d": ("run", RUN_1D.replace("u_d = 0.1, 0.1", "u_d = nan, 0.1")),
    "nan-alpha": ("run", RUN_1D.replace("alphas = 1, 1", "alphas = nan, 1")),
    "inf-alpha": ("run", RUN_1D.replace("alphas = 1, 1", "alphas = inf, 1")),
    "bumps-1d-on-rectangles": ("run", RUN_2D.replace("bumps-2d", "bumps-1d")),
    "bumps-1d-on-triangles": ("run", RUN_2D.replace("bumps-2d", "bumps-1d")
                              .replace("nx = 4", f"file = {ACUTE_FIXTURE}")
                              .replace("dirichlet = y=1", "dirichlet = all")),
    # the acute patch has no edge on y = 1, so its mesh has no contact boundary
    "contact-missing-run": ("run", RUN_2D.replace("nx = 4", f"file = {ACUTE_FIXTURE}")),
    "contact-missing-steady-state": ("steady-state", RUN_2D.replace(
        "nx = 4", f"file = {ACUTE_FIXTURE}").replace("policy = fixed", "policy = adaptive")),
    # every run of a study is set up before its output directory is made
    "convergence-saturated": ("convergence", CONVERGENCE_CASE2.replace(
        "u_d = 0.1, 0.1", "u_d = 0.45, 0.45")),
    "convergence-one-cell": ("convergence", CONVERGENCE_CASE2.replace(
        "40, 80, 160, 320, 640", "1, 2, 4, 8").replace("reference = 1280", "reference = 16")),
}
# the name an error message must give
NAMED_IN_ERROR = {"unknown-key": "'cell'", "unknown-section": "[tme]",
                  "duplicate-key": "'cells'", "default-section": "[DEFAULT]",
                  "custom-indicator": "custom-indicator", "negative-snapshot": "-1.0",
                  "bumps-1d-on-rectangles": "2D mesh", "bumps-1d-on-triangles": "2D mesh",
                  "contact-missing-run": "Dirichlet", "contact-missing-steady-state": "Dirichlet",
                  "not-utf8": "bad.cfg: 'utf-8' codec can't decode byte 0xe9",
                  "nan-t-end": "'nan' is not a finite number", "nan-u-d": "u_d",
                  "nan-alpha": "alphas", "inf-alpha": "'inf' is not a finite number",
                  "convergence-saturated": "saturation",
                  "convergence-one-cell": "at least 2 cells"}


@pytest.mark.parametrize("name", sorted(BAD_CONFIGS))
def test_bad_config_values_are_configuration_errors(tmp_path, capsys, name):
    command, text = BAD_CONFIGS[name]
    cfg = write_config(tmp_path / "bad.cfg", text)
    code = main([command, "--config", cfg, "--out", str(tmp_path / "out")])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("configuration error:") and "Traceback" not in err
    assert NAMED_IN_ERROR.get(name, "") in err
    assert not (tmp_path / "out").exists()


SHIPPED_CONFIGS = sorted((Path(__file__).parents[1] / "configs").glob("*.cfg"))


@pytest.mark.parametrize("path", SHIPPED_CONFIGS, ids=lambda p: p.stem)
def test_shipped_configs_load(path):
    spec = load_config(str(path))
    assert spec.name == path.stem


def test_load_config_rejects_custom_indicator(tmp_path):
    # a config file has no key for its base, bump and boxes
    path = write_config(tmp_path / "c.cfg", RUN_1D.replace("bumps-1d", "custom-indicator"))
    with pytest.raises(ConfigurationError, match="custom-indicator"):
        load_config(path)


def test_readme_config_grammar_loads_and_names_every_key(tmp_path):
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    block = readme.split("### Configuration files", 1)[1].split("```\n", 2)[1]
    path = write_config(tmp_path / "grammar.cfg", block)
    load_config(path)
    parser = configparser.ConfigParser()
    parser.read(path)
    assert {s: set(parser[s]) for s in parser.sections()} == {
        s: set(keys) for s, keys in _CONFIG_KEYS.items()}


SATURATED = "u_d = 0.45, 0.45"  # the bump doubles species 1 to 0.9 beside species 2 at 0.45
INADMISSIBLE_DATA = {
    "run": RUN_1D,
    "convergence": CONVERGENCE_1D,
    "steady-state": RUN_2D.replace("policy = fixed", "policy = adaptive"),
}


@pytest.mark.parametrize("command", sorted(INADMISSIBLE_DATA))
def test_unusable_output_directory_is_a_configuration_error(tmp_path, capsys, monkeypatch,
                                                            command):
    def no_solve(*args, **kwargs):
        raise AssertionError("advance called")

    monkeypatch.setattr(harness, "advance", no_solve)
    cfg = write_config(tmp_path / "run.cfg", INADMISSIBLE_DATA[command])
    blocker = tmp_path / "a-file"
    blocker.write_text("")
    code = main([command, "--config", cfg, "--out", str(blocker)])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("configuration error: cannot create output directory")
    assert "a-file" in err


@pytest.mark.parametrize("command", sorted(INADMISSIBLE_DATA))
def test_inadmissible_initial_datum_is_a_configuration_error(tmp_path, capsys, command):
    text = INADMISSIBLE_DATA[command].replace("u_d = 0.1, 0.1", SATURATED)
    cfg = write_config(tmp_path / "sat.cfg", text)
    code = main([command, "--config", cfg, "--out", str(tmp_path / "out")])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("configuration error: initial datum:") and "saturation" in err


def test_steady_state_command(tmp_path, capsys):
    cfg = write_config(
        tmp_path / "ss.cfg",
        """
[experiment]
name = ss-small
model = case2
alphas = 1, 1
u_d = 0.1, 0.1
initial = bumps-2d
t_end = 0.05

[mesh]
dimension = 2
nx = 4
ny = 4
dirichlet = y == 1

[time]
policy = adaptive
dt = 1e-4
""",
    )
    code = main(["steady-state", "--config", cfg, "--out", str(tmp_path / "out")])
    assert code == 0
    assert (tmp_path / "out" / "ss-small" / "decay.csv").exists()


def test_selftest(capsys):
    assert main(["selftest", "--seed", "0"]) == 0
    out = capsys.readouterr().out
    assert "selftest passed" in out
    assert "FAIL" not in out


def test_run_generic_model(tmp_path):
    cfg = write_config(
        tmp_path / "gen.cfg",
        RUN_1D.replace("model = case1", "model = generic\np = linear\na = 1\nb = 1"),
    )
    assert main(["run", "--config", cfg, "--out", str(tmp_path / "out")]) == 0


def test_run_missing_mesh_file(tmp_path, capsys):
    cfg = write_config(
        tmp_path / "m.cfg",
        RUN_1D.replace("dimension = 1", "dimension = 2")
        .replace("dirichlet = left", "dirichlet = y=1")
        .replace("cells = 20", "file = /does/not/exist.mesh"),
    )
    assert main(["run", "--config", cfg, "--out", str(tmp_path / "out")]) == 2


def test_paper_scale_2d_requires_mesh_file(tmp_path, capsys):
    cfg = write_config(
        tmp_path / "p.cfg",
        RUN_1D.replace("dimension = 1", "dimension = 2").replace(
            "dirichlet = left", "dirichlet = y=1"
        ),
    )
    code = main(["run", "--config", cfg, "--out", str(tmp_path / "out"), "--paper-scale"])
    assert code == 2


def test_run_beyond_model_domain_is_a_solver_failure(tmp_path, capsys):
    # generic exp with a = b = 2 is tabulated up to m = 0.99705; the bumps-1d
    # datum puts 2 * 0.4985 + 0.0005 = 0.9975 into the species-1 box
    cfg = write_config(
        tmp_path / "cap.cfg",
        RUN_1D.replace("model = case1", "model = generic\np = exp\na = 2\nb = 2")
        .replace("u_d = 0.1, 0.1", "u_d = 0.4985, 0.0005"),
    )
    code = main(["run", "--config", cfg, "--out", str(tmp_path / "out")])
    assert code == 3
    err = capsys.readouterr().err
    assert err.startswith("solver failure:") and "beyond quadrature range" in err
