import configparser
import dataclasses
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest

from biofilm_fv import harness, oracle, scheme
from biofilm_fv.cli import _CONFIG_KEYS, load_config, main
from biofilm_fv.harness import MAX_STEPS, ConfigurationError
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
# the keys convergence reads: no cells, [time] step or [output]
CONVERGENCE_1D = RUN_1D.split("[time]")[0].replace("cells = 20\n", "") + """[convergence]
resolutions = 8, 16, 32, 64
reference = 128
"""


def test_run_smoke(tmp_path, capsys):
    cfg = write_config(tmp_path / "run.cfg", RUN_1D)
    code = main(["run", "--config", cfg, "--out", str(tmp_path / "out")])
    assert code == 0
    out_dir = tmp_path / "out" / "smoke-1d"
    assert (out_dir / "entropy.csv").exists()
    assert (out_dir / "snapshot_0.0001.csv").exists()
    assert (out_dir / "run_metadata.json").exists()


def test_run_imports_neither_scipy_integrate_nor_scipy_special(tmp_path):
    # a fresh interpreter, so that no other test's imports count
    cfg = write_config(tmp_path / "run.cfg", RUN_1D)
    script = ("import sys\n"
              "from biofilm_fv.cli import main\n"
              f"assert main(['run', '--config', {cfg!r}, '--out', {str(tmp_path / 'out')!r}]) == 0\n"
              "print(sorted({'scipy.integrate', 'scipy.special'} & set(sys.modules)))\n")
    env = dict(os.environ, PYTHONPATH=str(Path(biofilm_fv.__file__).parents[1]))
    done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                          text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == "[]"


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
    cfg = write_config(tmp_path / "conv.cfg", CONVERGENCE_1D.replace(
        "8, 16, 32, 64", "10, 20").replace("reference = 128", "reference = 40"))
    code = main(["convergence", "--config", cfg, "--out", str(tmp_path / "out")])
    assert code == 2
    assert "need at least 4 resolutions" in capsys.readouterr().err


def test_convergence_small(tmp_path, capsys):
    cfg = write_config(tmp_path / "conv.cfg", CONVERGENCE_1D)
    code = main(["convergence", "--config", cfg, "--out", str(tmp_path / "out")])
    assert code == 0
    out = capsys.readouterr().out
    assert "fitted spatial order" in out
    assert out.count("pairwise orders 8->16 ") == 2
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
    "no-cells": "nodes 0 triangles 0\n",
    "node-index": RHOMBUS.replace("0 3 1", "0 4 1"),
    "collinear": "nodes 3 triangles 1\n0.0 0.0\n1.0 0.0\n2.0 0.0\n0 1 2\n",
    # both acute triangles lie above the edge (0, 1) that they share
    "same-side": ("nodes 4 triangles 2\n0.0 0.0\n1.0 0.0\n0.5 0.8\n0.5 0.6\n"
                  "0 1 2\n0 1 3\n"),
    # node 2 lies 3e-15 outside the circle on the edge (0, 1): the triangle is
    # acute, but its circumcenter is within 1e-14 of that boundary edge
    "boundary-circumcenter": ("nodes 3 triangles 1\n0.0 0.0\n0.001 0.0\n"
                              "0.0007701511529356908 0.0004207354924064727\n0 1 2\n"),
    "header-word": RHOMBUS.replace("nodes 4", "vertices 4"),
    "negative-count": RHOMBUS.replace("triangles 2", "triangles -2"),
    "truncated": RHOMBUS.replace("0 3 1\n", ""),
}
# the reason each check-mesh error must give
MALFORMED_MESH_ERRORS = {"header-word": "expected header 'nodes <N> triangles <M>'",
                         "negative-count": "expected header 'nodes <N> triangles <M>'",
                         "truncated": "truncated mesh file",
                         "no-cells": "mesh needs at least one cell",
                         "node-index": "triangle references a node that does not exist",
                         "collinear": "degenerate",
                         "same-side": "circumcenters on the same side",
                         "boundary-circumcenter":
                             "triangle 0: circumcenter lies on boundary edge (0, 1)"}


@pytest.mark.parametrize("name", sorted(MALFORMED_MESHES))
def test_check_mesh_rejects_malformed_file(tmp_path, capsys, name):
    path = tmp_path / "bad.mesh"
    path.write_text(MALFORMED_MESHES[name], encoding="utf-8")
    code = main(["check-mesh", str(path)])
    assert code == 4
    err = capsys.readouterr().err
    assert err.startswith("inadmissible mesh:") and "Traceback" not in err
    assert MALFORMED_MESH_ERRORS.get(name, "") in err


RUN_2D = RUN_1D.replace("initial = bumps-1d", "initial = bumps-2d").replace(
    "dimension = 1\ncells = 20\ndirichlet = left", "dimension = 2\nnx = 4\nny = 4\ndirichlet = y=1"
)
RUN_TRIANGLES = RUN_2D.replace("nx = 4\nny = 4", f"file = {ACUTE_FIXTURE}")
CONVERGENCE_CASE2 = (Path(__file__).parents[1] / "configs" / "convergence-case2.cfg").read_text(
    encoding="ascii")
BAD_CONFIGS = {
    "dimension-word": ("run", RUN_1D.replace("dimension = 1", "dimension = two")),
    "dimension-3": ("run", RUN_2D.replace("dimension = 2", "dimension = 3")),
    "resolution-word": ("convergence", CONVERGENCE_1D.replace("8, 16", "8, x")),
    "zero-cells": ("run", RUN_1D.replace("cells = 20", "cells = 0")),
    "zero-nx": ("run", RUN_2D.replace("nx = 4", "nx = 0")),
    "negative-dt": ("run", RUN_1D.replace("dt = 1e-5", "dt = -1e-5")),
    # the Newton tolerance and iteration budget are constants of scheme, not config keys
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
    # advance counts a horizon within 1e-13 of t = 0 as reached, and takes no step
    "t-end-reached": ("run", RUN_1D.replace("t_end = 1e-4", "t_end = 1e-14")
                      .replace("snapshots = 1e-4", "snapshots = 0")),
    "snapshot-reached": ("run", RUN_1D.replace("snapshots = 1e-4", "snapshots = 1e-14, 1e-4")),
    "nan-u-d": ("run", RUN_1D.replace("u_d = 0.1, 0.1", "u_d = nan, 0.1")),
    "nan-alpha": ("run", RUN_1D.replace("alphas = 1, 1", "alphas = nan, 1")),
    "inf-alpha": ("run", RUN_1D.replace("alphas = 1, 1", "alphas = inf, 1")),
    "bumps-1d-on-rectangles": ("run", RUN_2D.replace("bumps-2d", "bumps-1d")),
    "bumps-1d-three-species": ("run", RUN_1D.replace("alphas = 1, 1", "alphas = 1, 1, 1")
                               .replace("u_d = 0.1, 0.1", "u_d = 0.1, 0.1, 0.1")),
    "bumps-1d-on-triangles": ("run", RUN_TRIANGLES.replace("bumps-2d", "bumps-1d")
                              .replace("dirichlet = y=1", "dirichlet = all")),
    # the acute patch has no edge on y = 1, so its mesh has no contact boundary
    "contact-missing-run": ("run", RUN_TRIANGLES),
    "contact-missing-steady-state": ("steady-state", RUN_TRIANGLES.replace(
        "policy = fixed", "policy = adaptive")),
    # every run of a study is set up before its output directory is made
    "convergence-saturated": ("convergence", CONVERGENCE_CASE2.replace(
        "u_d = 0.1, 0.1", "u_d = 0.45, 0.45")),
    "convergence-one-cell": ("convergence", CONVERGENCE_CASE2.replace(
        "40, 80, 160, 320, 640", "1, 2, 4, 8").replace("reference = 1280", "reference = 16")),
    # a zero resolution used to reach reference % 0
    "convergence-zero-cells": ("convergence", CONVERGENCE_CASE2.replace(
        "40, 80, 160, 320, 640", "0, 1, 2, 3").replace("reference = 1280", "reference = 6")),
    # the outputs go to <out>/<name>; TMP stands for the test's own directory
    "name-parent": ("run", RUN_1D.replace("name = smoke-1d", "name = ../escaped")),
    "name-absolute": ("run", RUN_1D.replace("name = smoke-1d", "name = TMP/escaped")),
    "name-dot": ("run", RUN_1D.replace("name = smoke-1d", "name = .")),
    "name-empty": ("run", RUN_1D.replace("name = smoke-1d", "name =")),
    "model-unknown": ("run", RUN_1D.replace("model = case1", "model = nope")),
    "generic-without-p": ("run", RUN_1D.replace("model = case1", "model = generic")),
    "generic-without-exponents": ("run", RUN_1D.replace("model = case1",
                                                         "model = generic\np = linear")),
    "species-count-mismatch": ("run", RUN_1D.replace("alphas = 1, 1", "alphas = 1, 1, 1")),
    "policy-unknown": ("run", RUN_1D.replace("policy = fixed", "policy = sometimes")),
    "convergence-2d": ("convergence", CONVERGENCE_1D.replace("dimension = 1", "dimension = 2")),
    "no-experiment-section": ("run", "[mesh]" + RUN_1D.split("[mesh]", 1)[1]),
    # None: the config path does not exist
    "missing-config": ("run", None),
    # a key that the run never reads, one case per clause of cli._unread_keys
    "cells-in-2d": ("run", RUN_2D.replace("nx = 4", "cells = 4\nnx = 4")),
    "nx-in-1d": ("run", RUN_1D.replace("cells = 20", "cells = 20\nnx = 7")),
    "ny-in-1d": ("run", RUN_1D.replace("cells = 20", "cells = 20\nny = 7")),
    "file-in-1d": ("run", RUN_1D.replace("cells = 20", f"cells = 20\nfile = {ACUTE_FIXTURE}")),
    "nx-beside-file": ("run", RUN_TRIANGLES.replace("dirichlet = y=1", "nx = 4\ndirichlet = all")),
    "p-without-generic": ("run", RUN_1D.replace("model = case1", "model = case1\np = exp")),
    "cells-in-convergence": ("convergence", CONVERGENCE_1D.replace(
        "dimension = 1", "dimension = 1\ncells = 20")),
    "dt-in-convergence": ("convergence", CONVERGENCE_1D + "[time]\ndt = 1e-5\n"),
    "snapshots-in-convergence": ("convergence", CONVERGENCE_1D + "[output]\nsnapshots = 1e-4\n"),
    "dt-min-under-fixed": ("run", RUN_1D.replace("dt = 1e-5", "dt = 1e-5\ndt_min = 1e-8")),
    "resolutions-in-run": ("run", RUN_1D + "[convergence]" + CONVERGENCE_1D.split(
        "[convergence]")[1]),
    # 5e-05 and 5.0000001e-05 would both write snapshot_5e-05.csv
    "snapshot-tags-collide": ("run", RUN_1D.replace("snapshots = 1e-4",
                                                    "snapshots = 5e-5, 5.0000001e-5")),
    # more than harness.MAX_STEPS steps to t_end: dt under the fixed policy, dt_max otherwise
    "dt-too-small": ("run", RUN_1D.replace("dt = 1e-5", "dt = 1e-300")),
    "t-end-too-far": ("run", RUN_1D.replace("t_end = 1e-4", "t_end = 1e300")
                      .replace("policy = fixed", "policy = adaptive")),
    # more than harness.MAX_CELLS cells, rejected before any array is made; each
    # would otherwise fail to allocate its first array (75 GiB, 66 TiB and 728 TiB)
    "cells-too-many": ("run", RUN_1D.replace("cells = 20", "cells = 10000000000")),
    "nx-ny-too-many": ("run", RUN_2D.replace("nx = 4\nny = 4", "nx = 3000000\nny = 3000000")),
    "reference-too-many": ("convergence", CONVERGENCE_CASE2.replace(
        "reference = 1280", "reference = 100000000000000")),
    # generic exp with a = b = 2 is tabulated up to m = 0.99705; the bumps-1d
    # datum puts 2 * 0.4985 + 0.0005 = 0.9975 into the species-1 box
    "generic-beyond-cap-initial": ("run", RUN_1D.replace(
        "model = case1", "model = generic\np = exp\na = 2\nb = 2")
        .replace("u_d = 0.1, 0.1", "u_d = 0.4985, 0.0005")),
    # linear p with b = 2000 caps the biomass at 0.2915, below the bumps' 0.3
    "generic-beyond-cap-convergence": ("convergence", CONVERGENCE_1D.replace(
        "model = case1", "model = generic\np = linear\na = 1\nb = 2000")),
    # log w overflows on all of (0, 1), so the model has no domain to build panels on
    "generic-empty-domain": ("run", RUN_1D.replace(
        "model = case1", "model = generic\np = exp\na = 1\nb = 1e300")),
    # case1's domain ends at m = 0.99705 too; the species-1 box holds 2 * 0.4 + 0.199
    "case1-beyond-domain": ("run", RUN_1D.replace("u_d = 0.1, 0.1", "u_d = 0.4, 0.199")),
    # case1's G underflows to 0 below M ~ 1e-103, so log g at the contact is -inf
    "case1-contact-log-g-underflow": ("run", RUN_1D.replace("u_d = 0.1, 0.1",
                                                            "u_d = 1e-120, 1e-120")),
}
# the name an error message must give
NAMED_IN_ERROR = {"unknown-key": "'cell'", "unknown-section": "[tme]",
                  "duplicate-key": "'cells'", "default-section": "[DEFAULT]",
                  "custom-indicator": "custom-indicator", "negative-snapshot": "-1.0",
                  "zero-newton-tol": "unknown key 'newton_tol' in [time]",
                  "zero-newton-iters": "unknown key 'newton_max_iters' in [time]",
                  "bumps-1d-on-rectangles": "2D mesh", "bumps-1d-on-triangles": "2D mesh",
                  "bumps-1d-three-species": "bumps-1d is a two-species datum",
                  "contact-missing-run": "Dirichlet", "contact-missing-steady-state": "Dirichlet",
                  "not-utf8": "bad.cfg: 'utf-8' codec can't decode byte 0xe9",
                  "nan-t-end": "'nan' is not a finite number",
                  "t-end-reached": "t_end must be finite and exceed 1e-13, got 1e-14",
                  "snapshot-reached": "snapshot time 1e-14 must be 0 or exceed 1e-13",
                  "nan-u-d": "u_d",
                  "case1-contact-log-g-underflow": "contact biomass 2e-120: log g = -inf",
                  "nan-alpha": "alphas", "inf-alpha": "'inf' is not a finite number",
                  "convergence-saturated": "saturation",
                  "convergence-one-cell": "at least 2 cells, got 1, 2, 4, 8",
                  "convergence-zero-cells": "at least 2 cells, got 0, 1, 2, 3",
                  "name-parent": "name: '../escaped' is not a plain file name",
                  "name-absolute": "escaped' is not a plain file name",
                  "name-dot": "name: '.' is not a plain file name",
                  "name-empty": "name: '' is not a plain file name",
                  "model-unknown": "unknown model selector 'nope'",
                  "generic-without-p": "unknown p function None",
                  "generic-without-exponents": "requires exponents a and b",
                  "species-count-mismatch": "alphas and u_d must have the same length",
                  "policy-unknown": "unknown dt policy 'sometimes'",
                  "convergence-2d": "runs on 1D meshes",
                  "no-experiment-section": "missing [experiment] section",
                  "missing-config": "cannot read config file",
                  "cells-in-2d": "[mesh] cells is not read in 2D",
                  "nx-in-1d": "[mesh] nx is not read in 1D",
                  "ny-in-1d": "[mesh] ny is not read in 1D",
                  "file-in-1d": "[mesh] file is not read in 1D",
                  "nx-beside-file": "[mesh] nx is not read beside [mesh] file",
                  "p-without-generic": "[experiment] p is not read without model = generic",
                  "cells-in-convergence": "[mesh] cells is not read by convergence",
                  "dt-in-convergence": "[time] dt is not read by convergence",
                  "snapshots-in-convergence": "[output] snapshots is not read by convergence",
                  "dt-min-under-fixed": "[time] dt_min is not read without policy = adaptive",
                  "resolutions-in-run": "[convergence] resolutions is not read by run",
                  "snapshot-tags-collide": "snapshot times 5e-05 and 5.0000001e-05 share the "
                                           "file tag 5e-05",
                  "cells-too-many": "mesh of 10000000000 cells, more than 1000000",
                  "nx-ny-too-many": "mesh of nx * ny = 9000000000000 cells, more than 1000000",
                  "reference-too-many": "mesh of 100000000000000 cells, more than 1000000",
                  "dt-too-small": "t_end = 0.0001 at dt = 1e-300 implies 1e+296 steps",
                  "t-end-too-far": "t_end = 1e+300 at dt_max = 0.01 implies 1e+302 steps",
                  "generic-beyond-cap-initial": "model 'generic:exp': biomass out of range: min=0.499, "
                                                "max=0.9975, m_max=0.99705",
                  "generic-beyond-cap-convergence": "model 'generic:linear': biomass out of range",
                  "generic-empty-domain": "empty domain",
                  "case1-beyond-domain": "initial or contact biomass: model 'case1'"}


@pytest.mark.parametrize("name", sorted(BAD_CONFIGS))
def test_bad_config_values_are_configuration_errors(tmp_path, capsys, name):
    command, text = BAD_CONFIGS[name]
    cfg = tmp_path / "bad.cfg"
    if text is not None:
        write_config(cfg, text.replace("TMP", str(tmp_path)))
    code = main([command, "--config", str(cfg), "--out", str(tmp_path / "out")])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("configuration error:") and "Traceback" not in err
    assert NAMED_IN_ERROR.get(name, "") in err
    # no output directory, and nothing written beside the config
    assert [path.name for path in tmp_path.iterdir()] == ([] if text is None else ["bad.cfg"])


SHIPPED_CONFIGS = sorted((Path(__file__).parents[1] / "configs").glob("*.cfg"))


@pytest.mark.parametrize("path", SHIPPED_CONFIGS, ids=lambda p: p.stem)
def test_shipped_configs_load(path):
    assert load_config(str(path)).name == path.stem
    for command in _commands(_capped(path)):
        assert load_config(str(path), command).name == path.stem


def test_convergence_steps_are_bounded_per_run_not_by_the_unread_dt(tmp_path):
    # t_end / dt at the default dt = 1e-5 would be 2e7 steps; the finest run
    # takes t_end * 64^2 = 819,200 at dt = 1/64^2
    text = (CONVERGENCE_1D.replace("t_end = 1e-4", "t_end = 200")
            .replace("8, 16, 32, 64", "4, 8, 16, 32").replace("reference = 128", "reference = 64"))
    spec = load_config(write_config(tmp_path / "long.cfg", text), "convergence")
    assert spec.t_end / spec.dt > MAX_STEPS
    for n in spec.resolutions + (spec.reference,):
        cfg = dataclasses.replace(spec, n_cells=n, dt=1.0 / n**2).newton_config()
        assert cfg.dt_max == 1.0 / n**2


@pytest.mark.parametrize("case", ["case1", "case2"])
def test_paper_configs_are_their_desk_scale_twins_at_the_paper_sizes(case):
    configs = Path(__file__).parents[1] / "configs"
    desk = load_config(str(configs / f"convergence-{case}.cfg"), "convergence")
    paper = load_config(str(configs / f"convergence-{case}-paper.cfg"), "convergence")
    assert (paper.resolutions, paper.reference) == ((40, 80, 160, 320, 640, 1280, 2560), 5120)
    assert dataclasses.replace(paper, name=desk.name, resolutions=desk.resolutions,
                               reference=desk.reference) == desk
    # the reference run takes t_end / dt steps at dt = 1/reference^2
    assert paper.t_end * paper.reference**2 == pytest.approx(26214.4)
    assert paper.t_end * paper.reference**2 < MAX_STEPS


def test_load_config_rejects_custom_indicator(tmp_path):
    # a config file has no key for its base, bump and boxes
    path = write_config(tmp_path / "c.cfg", RUN_1D.replace("bumps-1d", "custom-indicator"))
    with pytest.raises(ConfigurationError, match="custom-indicator"):
        load_config(path)


def test_readme_config_grammar_loads_and_names_every_key(tmp_path):
    # each block loads for the subcommand its first line names, "# run: ...";
    # together they name every key
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("### Configuration files", 1)[1].split("\n## ", 1)[0]
    blocks = section.split("```\n")[1::2]
    named = {s: set() for s in _CONFIG_KEYS}
    for k, block in enumerate(blocks):
        command = block.split(":", 1)[0].removeprefix("# ")
        assert command in ("run", "steady-state", "convergence")
        path = write_config(tmp_path / f"grammar-{k}.cfg", block)
        load_config(path, command)
        parser = configparser.ConfigParser()
        parser.read(path)
        for s in parser.sections():
            named[s] |= set(parser[s])
    assert len(blocks) == 4
    assert named == {s: set(keys) for s, keys in _CONFIG_KEYS.items()}


def test_readme_library_example_runs(capsys):
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Library use", 1)[1]
    example = section.split("```python\n", 1)[1].split("```", 1)[0]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        exec(compile(example, "README.md", "exec"), {})
    # the bumps-1d datum peaks at M = 0.3, and equal diffusivities keep it there
    assert float(capsys.readouterr().out) <= 0.3 + 1e-12


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


# an output file of each writer and study, and the config that writes it
OUTPUT_FILES = [
    ("run", RUN_1D, "smoke-1d/snapshot_0.0001.csv"),
    ("run", RUN_1D, "smoke-1d/entropy.csv"),
    ("run", RUN_1D, "smoke-1d/run_metadata.json"),
    ("run", RUN_2D, "smoke-1d/snapshot_0.0001.vtk"),
    ("convergence", CONVERGENCE_1D, "smoke-1d/convergence.csv"),
    ("steady-state", INADMISSIBLE_DATA["steady-state"], "smoke-1d/decay.csv"),
]


@pytest.mark.parametrize("command, text, name", OUTPUT_FILES,
                         ids=[f"{c}-{n.split('/')[1]}" for c, _, n in OUTPUT_FILES])
def test_unwritable_output_file_is_a_configuration_error(tmp_path, capsys, command, text,
                                                         name):
    # a directory in the file's place; file permissions would not stop root
    cfg = write_config(tmp_path / "run.cfg", text)
    (tmp_path / "out" / name).mkdir(parents=True)
    code = main([command, "--config", cfg, "--out", str(tmp_path / "out")])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("configuration error: cannot write output") and "Traceback" not in err
    assert name in err


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


@pytest.mark.parametrize("name, nan, failing", [
    ("quadrature_g", lambda *_: np.nan, "mobility ratio vs quadrature"),
    ("entropy_production_beta_bound", lambda *_: (np.nan, 0.0), "dissipation lower bound"),
], ids=["g", "beta_bound"])
def test_selftest_fails_on_a_nan_check(name, nan, failing, monkeypatch, capsys):
    monkeypatch.setattr(oracle, name, nan)
    assert main(["selftest", "--seed", "0"]) == 1
    out, err = capsys.readouterr()
    assert any(line.startswith("FAIL:") and failing in line for line in out.splitlines())
    assert "selftest FAILED" in err


@pytest.mark.parametrize("seed", ["-1", "abc"])
def test_selftest_rejects_a_seed_that_is_not_a_nonnegative_integer(seed, capsys):
    # numpy's generators take no negative seed; it is a usage error, not a traceback
    with pytest.raises(SystemExit) as exit_info:
        main(["selftest", "--seed", seed])
    assert exit_info.value.code == 2
    err = capsys.readouterr().err
    assert "usage:" in err
    assert f"seed must be a nonnegative integer, got '{seed}'" in err


def test_run_generic_model(tmp_path):
    cfg = write_config(
        tmp_path / "gen.cfg",
        RUN_1D.replace("model = case1", "model = generic\np = linear\na = 1\nb = 1"),
    )
    assert main(["run", "--config", cfg, "--out", str(tmp_path / "out")]) == 0


def test_run_generic_model_with_a_large_exponent(tmp_path):
    # 2^(a+1) overflows for a above about 1000; the model never forms it
    cfg = write_config(
        tmp_path / "gen.cfg",
        RUN_1D.replace("model = case1", "model = generic\np = linear\na = 2000\nb = 1")
        .replace("cells = 20", "cells = 4"),
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


def test_invariant_violation_is_a_solver_failure(tmp_path, capsys, monkeypatch):
    def saturating_step(state_prev, start, dt, mesh, model, bdata, *, solver=None):
        u = np.full_like(state_prev.u, 0.45)  # admissible, far above the biomass bound
        return (scheme.State(time=state_prev.time + dt, u=u, dt_last=dt),
                scheme.NewtonResult(scheme.evaluate(u, mesh, model, bdata), 1, 0.0))

    monkeypatch.setattr(scheme, "newton_step", saturating_step)
    cfg = write_config(tmp_path / "run.cfg", RUN_1D)
    assert main(["run", "--config", cfg, "--out", str(tmp_path / "out")]) == 3
    err = capsys.readouterr().err
    assert err.startswith("solver failure: biomass bound violated") and "Traceback" not in err


# -- seeded sweep of the failure paths ----------------------------------------------------

# one hostile value per entry, set on one key at a time; PATH stands for a
# path outside --out, which no run may create
HOSTILE_VALUES = ("0", "-1", "1e-400", "1e300", "nan", "", "2.5", "PATH", "nope")
# the shipped sizes, capped so that no mutation builds a large mesh
SIZE_CAPS = {"cells": "8", "nx": "3", "ny": "3", "resolutions": "4, 8, 16, 32",
             "reference": "64"}


def _capped(path):
    parser = configparser.ConfigParser()
    parser.read(path, encoding="utf-8")
    for section in parser.sections():
        for key in parser[section]:
            if key in SIZE_CAPS:
                parser[section][key] = SIZE_CAPS[key]
    return parser


def _commands(parser):
    """The subcommands a config serves."""
    if parser.has_section("convergence"):
        return ("convergence",)
    if parser.get("time", "policy", fallback="fixed") == "adaptive":
        return ("run", "steady-state")
    return ("run",)


def _mutations(parser):
    return [(section, key, value) for section in parser.sections()
            for key in parser[section] for value in HOSTILE_VALUES]


def _run_mutation(tmp_path, capsys, parser, mutation, command):
    section, key, value = mutation
    mutated = configparser.ConfigParser()
    mutated.read_dict(parser)
    mutated[section][key] = value.replace("PATH", str(tmp_path / "elsewhere" / "x"))
    with open(tmp_path / "m.cfg", "w", encoding="utf-8") as fh:
        mutated.write(fh)
    out = tmp_path / "out"
    code = main([command, "--config", str(tmp_path / "m.cfg"), "--out", str(out)])
    err = capsys.readouterr().err
    where = f"{command} with [{section}] {key} = {value!r}: exit {code}, {err!r}"
    assert {p.name for p in tmp_path.iterdir()} <= {"m.cfg", "out"}, where
    if code == 2:
        assert err.startswith("configuration error:"), where
    return code, where


def _leap(state, t_end, mesh, model, bdata, cfg, observer=None):
    """``advance`` without a Newton iterate: one step that keeps u.

    It reports the step, because ``advance`` takes at least one step to any
    t_end that ``ExperimentSpec`` accepts, and the studies read the reports.
    """
    new_state = scheme.State(time=t_end, u=state.u, dt_last=t_end - state.time)
    if observer is not None:
        observer(scheme.StepReport(
            time=t_end, dt_used=t_end - state.time, newton_iters=0, dt_halvings=0,
            lu_factorizations=0, lu_solves=0, residual_norm=0.0, entropy=0.0,
            dissipation=np.zeros(len(state.u)), max_M=float(state.biomass.max()),
            min_u=float(state.u.min()), conservation_defect=0.0, entropy_margin=0.0),
            new_state)
    return new_state


@pytest.mark.parametrize("path", SHIPPED_CONFIGS, ids=lambda p: p.stem)
def test_failure_path_sweep(tmp_path, capsys, monkeypatch, path):
    # every one-key mutation of a shipped config is accepted or a configuration
    # error; a seeded sample of the accepted ones then steps to t_end = 1e-4
    monkeypatch.chdir(tmp_path)
    parser = _capped(path)
    accepted = []
    with monkeypatch.context() as stub:
        stub.setattr(harness, "advance", _leap)
        for mutation in _mutations(parser):
            for command in _commands(parser):
                code, where = _run_mutation(tmp_path, capsys, parser, mutation, command)
                assert code in (0, 2), where
                # a hostile t_end would step for a long time, and a name
                # changes only where the outputs go
                if code == 0 and mutation[1] not in ("t_end", "name"):
                    accepted.append((mutation, command))

    parser["experiment"]["t_end"] = "1e-4"
    if parser.has_option("output", "snapshots"):
        parser["output"]["snapshots"] = "5e-5, 1e-4"
    rng = np.random.default_rng(0)
    for k in rng.choice(len(accepted), size=min(2, len(accepted)), replace=False):
        mutation, command = accepted[k]
        code, where = _run_mutation(tmp_path, capsys, parser, mutation, command)
        assert code in (0, 2, 3), where
