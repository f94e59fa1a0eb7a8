"""Config runner: parsing, artifacts, determinism, exit behavior."""

import hashlib
import json
import re
import threading
import warnings

import numpy as np
import pytest

from oracles import custom_basis
from tomolab import bases, cli, regression, states
from tomolab.errors import ConfigParseError, TomolabError


def write_cfg(tmp_path, text, name="exp.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


SIM_CFG = """
[basis]
kind = pauli
d = 2

[state]
witness = cor2_line
beta = 0.5
j_star = 1

[design]
mode = fixed

[run]
task = simulate
n = 4
m = 16
seed = 77
out = {out}
"""


GOLDEN_CFG = """
[run]
task = {task}
seed = 1729
out = {out}
"""

# the golden basis, state and design, each with the tasks that read it
GOLDEN_INPUTS = [
    ("\n[basis]\nkind = pauli\nd = 4\n",
     ("simulate", "translate", "zeta", "estimator_transfer", "corollaries")),
    ("\n[state]\nclass = low_rank\nr = 2\n",
     ("simulate", "translate", "zeta", "estimator_transfer")),
    ("\n[design]\nmode = random\n", ("simulate", "translate", "zeta")),
]

# sha256 of each artifact under RNG contract v2 (blocks of rng.BLOCK = 256
# records, one vectorised draw per block and draw kind), which v3 keeps for
# every family but TV; n = 500 spans two blocks.
# The draws change only with a deliberate, versioned change of the contract; the
# coarse and fine values also carry the last bits of the closed-form cell laws
# (``ObservableBasis.cell_traces``) and the moments read from them.
GOLDEN_SHA256 = {
    "tomography.csv": "d6e0c10aaf263924dc762468f479e4d12f46cfcbfa4cc620456a24c1398f8074",
    "coarse.csv": "592324ea48aa33b18d9b6f50fea563e4009d24081b7231fc822095f07a624885",
    "fine.csv": "da48a21f6f52adebba028eb4ccf77e6c82d38af7c44b17427e84d2784f25bae1",
    "translated_fine.csv": "7361d4b22442b8361711b5605498c270a0fab7a4343f7f225d0d66dc28304b27",
}

# what each task reads beyond GOLDEN_CFG, which ends inside [run]: simulate and
# translate their record keys, the grid tasks and corollaries their own section,
# at small sizes
TASK_KEYS = {
    "simulate": "n = 500\nm = 64\n",
    "translate": "n = 500\nm = 64\n",
    "distances": """
[distances]
theta = 0.5,0.5; 0.2,0.3,0.5
m_grid = 16,64
tv_samples = 2000
""",
    "scaling": """
[scaling]
theta = 0.3,0.7
m_grid = 16,64,256,1024
""",
    "estimator_transfer": """
[transfer]
m_grid = 16,64
replications = 200
""",
    "corollaries": """
[corollaries]
samples = 4
""",
}


def golden_cfg(task, out) -> str:
    """The config of ``task`` on the golden basis, state and design, those it reads."""
    return (GOLDEN_CFG.format(task=task, out=out) + TASK_KEYS.get(task, "")
            + "".join(text for text, tasks in GOLDEN_INPUTS if task in tasks))


# sha256 of each artifact of the other five tasks; a refactor must keep them.  The
# quadrature artifacts follow the Hellinger affinity over the ellipsoidal window,
# its error budget (fields of each distances.json row), the log-factorial table and the
# closed-form chi-square tails; its TV fields follow the TV draws of RNG contract v3.
# zeta, corollaries and transfer carry the last bits of the closed-form cell laws.
TASK_SHA256 = {
    "distances.json": "29e1e2ae2f78c03feeb325e3658b3881c22ff7e8c1ce5176ff6dc9ff71afe711",
    "scaling_0.json": "cea7c53b9ab53c65170c5cae058aad28cabbfe712a3b3e9f5442addd5438b7a9",
    "zeta.json": "cd59505bf5850af1429c0fa0992b707ae706c2009e89ab79d7572d4a490d1856",
    "corollaries.json": "5ac74dd0f410dd5d8ab059094b65e3ad6738d034ee27967fc8f090eb512d5b15",
    "transfer.json": "2086eef3df6446832cd0bc665359b1cc234aed8424dc3a43cba25a9c94f8ae6c",
}


class TestConfig:
    def test_parse_round_trip(self, tmp_path):
        cfg = cli.load_config(write_cfg(tmp_path, SIM_CFG.format(out=tmp_path / "o")))
        assert cfg.task == "simulate"
        assert cfg.d == 2 and cfg.m == 16 and cfg.seed == 77
        assert cfg.detail == "summary"

    def test_unknown_task(self, tmp_path):
        bad = SIM_CFG.replace("task = simulate", "task = fly")
        with pytest.raises(ConfigParseError):
            cli.load_config(write_cfg(tmp_path, bad.format(out=tmp_path)))

    def test_envelope(self, tmp_path):
        bad = SIM_CFG.replace("d = 2", "d = 32")
        with pytest.raises(ConfigParseError):
            cli.load_config(write_cfg(tmp_path, bad.format(out=tmp_path)))

    def test_missing_file_referenced(self, tmp_path):
        bad = SIM_CFG.replace("witness = cor2_line",
                              "matrix_file = /nonexistent/rho.txt")
        with pytest.raises(ConfigParseError):
            cli.load_config(write_cfg(tmp_path, bad.format(out=tmp_path)))

    def test_seed_env_override(self, tmp_path, monkeypatch):
        monkeypatch.setenv("TOMOLAB_SEED", "4242")
        cfg = cli.load_config(write_cfg(tmp_path, SIM_CFG.format(out=tmp_path / "o")))
        assert cfg.seed == 4242

    def test_task_section_wins_for_grids(self, tmp_path):
        # each grid task reads its grid from its own section only
        text = """
[run]
task = {task}
seed = 1
out = {out}

[{section}]
m_grid = 32,128,512,2048
"""
        for task, section in (("scaling", "scaling"), ("estimator_transfer", "transfer")):
            path = write_cfg(tmp_path, text.format(task=task, section=section, out=tmp_path))
            assert cli.load_config(path).m_grid == [32, 128, 512, 2048]
        # another task's section is never a fallback: a grid task rejects another
        # task's grid keys, and without its own section it gets the defaults
        only_distances = """
[run]
task = {task}
seed = 1
out = {out}

[distances]
theta = 0.2,0.8
m_grid = 16,64
"""
        for task in ("scaling", "estimator_transfer"):
            path = write_cfg(tmp_path, only_distances.format(task=task, out=tmp_path))
            with pytest.raises(ConfigParseError, match=rf"^read by no setting of task {task}: "
                                                       r"\[distances\] m_grid, \[distances\] theta$"):
                cli.load_config(path)
            bare = only_distances.split("[distances]")[0].format(task=task, out=tmp_path)
            cfg = cli.load_config(write_cfg(tmp_path, bare))
            default = cli.ExperimentConfig(task=task)
            assert cfg.thetas == default.thetas and cfg.m_grid == default.m_grid

    def test_semicolon_is_not_an_inline_comment(self, tmp_path):
        text = """
[run]
task = distances
seed = 1
out = {out}

[distances]
theta = 0.5,0.5 ; 0.2,0.3,0.5    # two vectors
m_grid = 16
"""
        cfg = cli.load_config(write_cfg(tmp_path, text.format(out=tmp_path)))
        assert cfg.thetas == [[0.5, 0.5], [0.2, 0.3, 0.5]]

    def test_invalid_theta_exits_2(self, tmp_path):
        text = """
[run]
task = scaling
seed = 1
out = {out}

[scaling]
theta = 0.9,0.9
m_grid = 16,64,256,1024
"""
        rc = cli.main(["run", "--config", write_cfg(tmp_path, text.format(out=tmp_path / "s"))])
        assert rc == 2

    def test_semantic_error_exits_2(self, tmp_path):
        text = """
[run]
task = scaling
seed = 1
out = {out}

[scaling]
theta = 0.5,0.5
m_grid = 16,64
"""
        rc = cli.main(["run", "--config", write_cfg(tmp_path, text.format(out=tmp_path / "s"))])
        assert rc == 2

    def test_invalid_theta_rejected_before_any_build(self, tmp_path, monkeypatch):
        def no_build(*args, **kwargs):
            raise AssertionError("a basis or state was built")

        monkeypatch.setattr(bases, "build_basis", no_build)
        monkeypatch.setattr(states, "validate_density", no_build)
        text = """
[run]
task = distances
seed = 1
out = {out}

[distances]
theta = 1.5,-0.5
m_grid = 16,64,256
"""
        path = write_cfg(tmp_path, text.format(out=tmp_path / "d"))
        with pytest.raises(ConfigParseError):
            cli.load_config(path)
        assert cli.main(["run", "--config", path]) == 2

    def test_scaling_needs_four_distinct_m(self, tmp_path):
        text = """
[run]
task = {task}
seed = 1
out = {out}

[{task}]
theta = 0.5,0.5
m_grid = {grid}
"""
        bad = text.format(task="scaling", grid="16,16,16,16", out=tmp_path)
        with pytest.raises(ConfigParseError):
            cli.load_config(write_cfg(tmp_path, bad, "bad.cfg"))
        # distances keeps accepting a short grid
        ok = text.format(task="distances", grid="16,64,256", out=tmp_path)
        assert cli.load_config(write_cfg(tmp_path, ok, "ok.cfg")).m_grid == [16, 64, 256]

    @pytest.mark.parametrize("section, key, value", [
        ("corollaries", "samples", 0),
        ("distances", "tv_samples", 1),
        ("transfer", "replications", 1),
        ("run", "threads", 0),
        ("run", "m", 0),
        ("basis", "d", 1),
    ])
    def test_meaningless_sample_size_exits_2(self, tmp_path, monkeypatch, capsys, section, key,
                                              value):
        def no_build(*args, **kwargs):
            raise AssertionError("a basis was built")

        monkeypatch.setattr(bases, "build_basis", no_build)
        task = next(t for t in ("corollaries", "simulate", "distances", "estimator_transfer")
                    if (section, key) in cli._KEYS[t])
        sections = {"run": {"task": task, "seed": 1, "out": tmp_path / "o"}}
        sections.setdefault(section, {})[key] = value
        text = "\n".join(f"[{name}]\n" + "".join(f"{k} = {v}\n" for k, v in keys.items())
                         for name, keys in sections.items())
        assert cli.main(["run", "--config", write_cfg(tmp_path, text)]) == 2
        assert capsys.readouterr().err.startswith(f"config error: [{section}] {key}")
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("task, n_line", [
        ("translate", ""), ("translate", "n = 0"), ("simulate", "n = -3")])
    def test_meaningless_record_count_exits_2(self, tmp_path, task, n_line):
        # translate over no records would pass a round trip it never made
        text = f"""
[design]
mode = random

[run]
task = {task}
{n_line}
seed = 1
out = {tmp_path / "o"}
"""
        path = write_cfg(tmp_path, text)
        with pytest.raises(ConfigParseError, match=r"\[run\] n must be at least"):
            cli.load_config(path)
        assert cli.main(["run", "--config", path]) == 2
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("task, section, key", [
        ("distances", "distances", "m_grid"),
        ("distances", "distances", "theta"),
        ("scaling", "scaling", "m_grid"),
        ("estimator_transfer", "transfer", "m_grid"),
    ])
    def test_empty_grid_exits_2(self, tmp_path, monkeypatch, task, section, key):
        # an empty grid runs no point, so its check would pass on nothing
        def no_build(*args, **kwargs):
            raise AssertionError("a basis was built")

        monkeypatch.setattr(bases, "build_basis", no_build)
        grid = {"m_grid": "16,64,256,1024"}
        if task != "estimator_transfer":
            grid["theta"] = "0.5,0.5"
        sections = {"run": {"task": task, "seed": 1, "out": tmp_path / "o"}, section: grid}
        sections[section][key] = ""
        text = "\n".join(f"[{name}]\n" + "".join(f"{k} = {v}\n" for k, v in keys.items())
                         for name, keys in sections.items())
        path = write_cfg(tmp_path, text)
        message = ("theta lists no probability vector" if key == "theta"
                   else "distinct m values, got 0")
        with pytest.raises(ConfigParseError, match=message):
            cli.load_config(path)
        assert cli.main(["run", "--config", path]) == 2
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("grid, message", [
        ("64", "at least 2 distinct m values, got 1"),
        ("64,64", "at least 2 distinct m values, got 1"),
        ("16,64,64", "m_grid must strictly increase"),
        ("256,16", "m_grid must strictly increase"),
    ], ids=["single", "repeated", "repeated-last", "decreasing"])
    def test_transfer_grid_must_increase_exits_2(self, tmp_path, monkeypatch, grid, message):
        # "the gap shrinks with m" compares consecutive grid points: with one
        # point it compares none and would pass on nothing
        def no_build(*args, **kwargs):
            raise AssertionError("a basis was built")

        monkeypatch.setattr(bases, "build_basis", no_build)
        text = f"""
[run]
task = estimator_transfer
seed = 1
out = {tmp_path / "o"}

[transfer]
m_grid = {grid}
"""
        path = write_cfg(tmp_path, text)
        with pytest.raises(ConfigParseError, match=message):
            cli.load_config(path)
        assert cli.main(["run", "--config", path]) == 2
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("task, section", [
        ("distances", "distances"),
        ("scaling", "scaling"),
        ("estimator_transfer", "transfer"),
    ])
    def test_m_below_1_exits_2(self, tmp_path, monkeypatch, task, section):
        def no_build(*args, **kwargs):
            raise AssertionError("a basis was built")

        monkeypatch.setattr(bases, "build_basis", no_build)
        text = f"""
[run]
task = {task}
seed = 1
out = {tmp_path / "o"}

[{section}]
{"" if task == "estimator_transfer" else "theta = 0.5,0.5"}
m_grid = 0,16,64,256,1024
"""
        path = write_cfg(tmp_path, text)
        with pytest.raises(ConfigParseError, match="at least 1"):
            cli.load_config(path)
        assert cli.main(["run", "--config", path]) == 2
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("j_star", [16, -1])
    def test_j_star_out_of_range_exits_2(self, tmp_path, j_star):
        text = f"""
[basis]
kind = pauli
d = 4

[state]
witness = cor2_line
j_star = {j_star}

[run]
task = zeta
seed = 2
out = {tmp_path / "z"}
"""
        assert cli.main(["run", "--config", write_cfg(tmp_path, text)]) == 2

    @pytest.mark.parametrize("section, key", [
        ("state", "beta"),
        ("tolerances", "c0"),
        ("tolerances", "c1"),
    ])
    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_non_finite_float_key_exits_2(self, tmp_path, section, key, value):
        # c0 = nan used to run the zeta task, print a FAIL and write NaN to zeta.json
        sections = {"run": {"task": "zeta", "seed": 2, "out": tmp_path / "z"},
                    "state": {"witness": "cor2_line"},
                    "tolerances": {"c0": 0.1, "c1": 0.9}}
        sections[section][key] = value
        text = "\n".join(f"[{name}]\n" + "".join(f"{k} = {v}\n" for k, v in keys.items())
                         for name, keys in sections.items())
        path = write_cfg(tmp_path, text)
        with pytest.raises(ConfigParseError, match="not finite"):
            cli.load_config(path)
        assert cli.main(["run", "--config", path]) == 2
        assert not (tmp_path / "z").exists()

    def test_nan_design_weight_exits_2(self, tmp_path):
        # used to exit 0 with "zeta": NaN and "gamma_p": NaN in zeta.json
        text = f"""
[basis]
kind = pauli
d = 2

[design]
mode = random
pi = nan,0.5,0.25,0.25

[run]
task = zeta
seed = 2
out = {tmp_path / "z"}
"""
        assert cli.main(["run", "--config", write_cfg(tmp_path, text)]) == 2
        assert not (tmp_path / "z" / "zeta.json").exists()

    def test_nan_g_file_exits_2(self, tmp_path):
        # a NaN axis used to leave every member on that column masking-only,
        # and a fixed-design zeta run exited 0 over the remaining members
        g = bases.haar_wavelet_vectors(4)
        g[1, 2] = np.nan
        np.savetxt(tmp_path / "g.txt", g)
        text = f"""
[basis]
kind = gvector
d = 4
g_file = {tmp_path / "g.txt"}

[state]
witness = cor2_line

[run]
task = zeta
seed = 2
out = {tmp_path / "z"}
"""
        assert cli.main(["run", "--config", write_cfg(tmp_path, text)]) == 2
        assert not (tmp_path / "z" / "zeta.json").exists()

    @pytest.mark.parametrize("entry", [np.inf, 1e200])
    def test_oversized_g_file_exits_2_without_a_warning(self, tmp_path, capsys, entry):
        # the entries are checked before the Gram product, which would print
        # numpy's invalid-value or overflow warning
        g = bases.haar_wavelet_vectors(4)
        g[0, 0] = entry
        np.savetxt(tmp_path / "g.txt", g)
        text = f"""
[basis]
kind = gvector
d = 4
g_file = {tmp_path / "g.txt"}

[state]
witness = cor2_line

[run]
task = zeta
seed = 2
out = {tmp_path / "z"}
"""
        with warnings.catch_warnings():
            warnings.simplefilter("always")  # printed to stderr, not raised
            assert cli.main(["run", "--config", write_cfg(tmp_path, text)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: g-vectors have an entry") and "Warning" not in err

    def test_over_long_matrix_file_exits_2(self, tmp_path):
        # a third row under a "2" header is not a 2 x 2 state with a stray line
        (tmp_path / "rho.txt").write_text("2\n0.5 0\n0 0.5\n5 5\n")
        text = SIM_CFG.replace("witness = cor2_line", f"matrix_file = {tmp_path / 'rho.txt'}")
        out = tmp_path / "s"
        assert cli.main(["run", "--config", write_cfg(tmp_path, text.format(out=out))]) == 2
        assert not (out / "tomography.csv").exists()

    def test_scaling_theta_without_two_active_cells_exits_2(self, tmp_path, monkeypatch):
        # H = 0 at every m has no log-log slope; rejected before any point runs
        def no_point(*args, **kwargs):
            raise AssertionError("a Hellinger point ran")

        monkeypatch.setattr(cli.equivalence, "hellinger_perturbed_vs_gaussian", no_point)
        text = f"""
[run]
task = scaling
seed = 1
out = {tmp_path / "o"}

[scaling]
theta = 0.5,0.5; 1,0
m_grid = 16,64,256,1024
"""
        path = write_cfg(tmp_path, text)
        with pytest.raises(ConfigParseError, match="two active cells"):
            cli.load_config(path)
        assert cli.main(["run", "--config", path]) == 2
        assert not (tmp_path / "o").exists()
        # distances keeps accepting it: H = TV = 0 is a meaningful answer there
        cfg = cli.load_config(write_cfg(
            tmp_path, text.replace("scaling", "distances"), "d.cfg"))
        assert cfg.thetas[1] == [1.0, 0.0]

    def test_scaling_point_with_vacuous_bar_exits_1(self, tmp_path, capsys):
        # m = 64 and 256 give the vacuous sqrt(2) +- sqrt(2); the slope through
        # them (-0.367) lies in the band but says nothing, so the check fails
        text = f"""
[run]
task = scaling
seed = 1
out = {tmp_path / "o"}

[scaling]
theta = 2e-5,0.99998
m_grid = 64,256,1024,4096
"""
        assert cli.main(["run", "--config", write_cfg(tmp_path, text)]) == 1
        assert "[FAIL] hellinger-slope-band" in capsys.readouterr().out
        report = json.loads((tmp_path / "o" / "scaling_0.json").read_text())
        assert report["error_bars"][:2] == [2 ** 0.5] * 2
        assert -0.70 <= report["slope"] <= -0.35 and report["passed"] is False

    def test_distances_point_with_vacuous_bar_exits_1(self, tmp_path, capsys):
        # sqrt(2) +- sqrt(2) bounds no TV in [0, 1] from above, so the point
        # fails, as it does in the scaling check
        text = f"""
[run]
task = distances
seed = 1
out = {tmp_path / "o"}

[distances]
theta = 2e-5,0.99998
m_grid = 64,256
"""
        assert cli.main(["run", "--config", write_cfg(tmp_path, text)]) == 1
        assert "[FAIL] tv-below-hellinger" in capsys.readouterr().out
        grid = json.loads((tmp_path / "o" / "distances.json").read_text())["grid"]
        assert [row["hellinger_err"] for row in grid] == [2 ** 0.5] * 2
        assert not any(row["tv_le_hellinger"] for row in grid)

    def test_infinite_m_grid_exits_2(self, tmp_path):
        text = f"""
[run]
task = distances
seed = 1
out = {tmp_path / "o"}

[distances]
m_grid = 16,inf
"""
        path = write_cfg(tmp_path, text)
        with pytest.raises(ConfigParseError, match=r"\[distances\] m_grid"):
            cli.load_config(path)
        assert cli.main(["run", "--config", path]) == 2

    @pytest.mark.parametrize("grid", ["16.9,0.5e2", "16,64,256.5"])
    def test_non_integer_m_grid_exits_2(self, tmp_path, capsys, grid):
        # each entry is an integer or the grid is rejected; 16.9 is not run as m = 16
        text = f"""
[run]
task = distances
seed = 1
out = {tmp_path / "o"}

[distances]
m_grid = {grid}
"""
        path = write_cfg(tmp_path, text)
        with pytest.raises(ConfigParseError, match=r"^bad value for \[distances\] m_grid"):
            cli.load_config(path)
        assert cli.main(["run", "--config", path]) == 2
        assert capsys.readouterr().err.startswith("config error: bad value for [distances] m_grid")
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("task", ["distances", "corollaries"])
    def test_negative_or_malformed_seed_exits_2(self, tmp_path, capsys, monkeypatch, task):
        # from the config and from TOMOLAB_SEED alike, before any task runs
        text = f"""
[run]
task = {task}
seed = {{seed}}
out = {tmp_path / "o"}
"""
        negative = write_cfg(tmp_path, text.format(seed=-1), "negative.cfg")
        valid = write_cfg(tmp_path, text.format(seed=3), "valid.cfg")
        message = "[run] seed or TOMOLAB_SEED must be at least 0, got -1"
        cases = [(None, negative, message), ("-1", valid, message),
                 ("abc", valid, "bad value for TOMOLAB_SEED: "),
                 ("1.5", valid, "bad value for TOMOLAB_SEED: ")]
        for env, path, want in cases:
            if env is None:
                monkeypatch.delenv("TOMOLAB_SEED", raising=False)
            else:
                monkeypatch.setenv("TOMOLAB_SEED", env)
            with pytest.raises(ConfigParseError) as exc:
                cli.load_config(path)
            assert str(exc.value).startswith(want)
            assert cli.main(["run", "--config", path]) == 2
            assert capsys.readouterr().err.startswith(f"config error: {want}")
            assert not (tmp_path / "o").exists()
        monkeypatch.setenv("TOMOLAB_SEED", "0")
        assert cli.load_config(valid).seed == 0

    @pytest.mark.parametrize("task, section, key", [
        ("distances", "distances", "tv_samples"),
        ("estimator_transfer", "transfer", "replications"),
        ("corollaries", "corollaries", "samples"),
    ])
    def test_sample_count_above_envelope_exits_2(self, tmp_path, capsys, task, section, key):
        # 10^12 draws would end in a numpy allocation traceback, not a config error
        text = f"""
[run]
task = {task}
seed = 1
out = {tmp_path / "o"}

[{section}]
{key} = {{value}}
"""
        cap = cli.ENVELOPE[key]
        ok = cli.load_config(write_cfg(tmp_path, text.format(value=cap), "ok.cfg"))
        assert getattr(ok, {"samples": "class_samples"}.get(key, key)) == cap
        bad = write_cfg(tmp_path, text.format(value=10 ** 12), "bad.cfg")
        with pytest.raises(ConfigParseError, match=f"{key} = {10 ** 12} exceeds envelope {cap}"):
            cli.load_config(bad)
        assert cli.main(["run", "--config", bad]) == 2
        assert capsys.readouterr().err.startswith("config error:")
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("section, key, value, message", [
        ("basis", "d", 17, "d = 17 exceeds envelope 16"),
        ("run", "m", 4097, "m = 4097 exceeds envelope 4096"),
        ("run", "n", 100_001, "n = 100001 exceeds envelope 100000"),
        ("distances", "m_grid", "16,8192", "m_grid exceeds envelope 4096"),
    ], ids=["d", "m", "n", "m_grid"])
    def test_size_above_envelope_exits_2(self, tmp_path, section, key, value, message):
        task = "distances" if (section, key) in cli._KEYS["distances"] else "simulate"
        sections = {"run": {"task": task, "seed": 1, "out": tmp_path / "o"}}
        sections.setdefault(section, {})[key] = value
        text = "\n".join(f"[{name}]\n" + "".join(f"{k} = {v}\n" for k, v in keys.items())
                         for name, keys in sections.items())
        path = write_cfg(tmp_path, text)
        with pytest.raises(ConfigParseError, match=f"^{message}$"):
            cli.load_config(path)
        assert cli.main(["run", "--config", path]) == 2
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("window", ["c0 = 0.2", "c1 = 0.8", "c0 = 0.8\nc1 = 0.2"],
                             ids=["c0-only", "c1-only", "c0-above-c1"])
    def test_meaningless_trace_window_exits_2(self, tmp_path, window):
        # c0 alone made no check and exited 0; c0 > c1 failed on every state and exited 1
        text = f"""
[basis]
kind = pauli
d = 4

[run]
task = zeta
seed = 2
out = {tmp_path / "z"}

[zeta]
witnesses = cor2_line

[tolerances]
{window}
"""
        path = write_cfg(tmp_path, text)
        with pytest.raises(ConfigParseError, match=r"\[tolerances\] c0 and c1"):
            cli.load_config(path)
        assert cli.main(["run", "--config", path]) == 2
        assert not (tmp_path / "z").exists()
        # an equal pair is a window of one value, which the loader accepts
        one = write_cfg(tmp_path, text.replace(window, "c0 = 0.25\nc1 = 0.25"), "one.cfg")
        cfg = cli.load_config(one)
        assert (cfg.c0, cfg.c1) == (0.25, 0.25)

    @pytest.mark.parametrize("task", ["distances", "scaling"])
    def test_theta_with_five_active_cells_exits_2(self, tmp_path, monkeypatch, task):
        # the quadrature integrates at most 4 cells; rejected before any point runs
        def no_point(*args, **kwargs):
            raise AssertionError("a grid point ran")

        monkeypatch.setattr(cli.equivalence, "hellinger_perturbed_vs_gaussian", no_point)
        text = f"""
[run]
task = {task}
seed = 1
out = {tmp_path / "o"}

[{task}]
theta = 0.1,0.2,0.3,0.4; 0.2,0.2,0.2,0.2,0.2
m_grid = 16,64,256,1024
"""
        path = write_cfg(tmp_path, text)
        with pytest.raises(ConfigParseError, match="has 5 active cells"):
            cli.load_config(path)
        assert cli.main(["run", "--config", path]) == 2
        assert not (tmp_path / "o").exists()
        # an inactive fifth cell leaves 4 to integrate
        cfg = cli.load_config(write_cfg(tmp_path, text.replace("0.2,0.2,0.2,0.2,0.2",
                                                               "0.25,0.25,0.25,0.25,0"), "4.cfg"))
        assert cfg.thetas[1] == [0.25, 0.25, 0.25, 0.25, 0.0]

    def test_rejections_are_value_errors(self):
        assert issubclass(TomolabError, ValueError)
        assert issubclass(ConfigParseError, TomolabError)

    @pytest.mark.parametrize("threads", ["0", "-3"])
    def test_meaningless_thread_option_exits_2(self, tmp_path, threads):
        out = tmp_path / "o"
        cfg = write_cfg(tmp_path, SIM_CFG.format(out=out))
        assert cli.main(["run", "--config", cfg, "--threads", threads]) == 2
        assert not out.exists()

    @pytest.mark.parametrize("line, bad", [("m = 16", "m = 0"), ("d = 2", "d = 1")],
                             ids=["m0", "d1"])
    def test_task_rejection_leaves_no_output_directory(self, tmp_path, line, bad):
        # the loader accepts both; the simulate task rejects them before naming an artifact
        out = tmp_path / "o"
        cfg = write_cfg(tmp_path, SIM_CFG.replace(line, bad).format(out=out))
        assert cli.main(["run", "--config", cfg]) == 2
        assert not out.exists()

    def test_mistyped_design_mode_exits_2(self, tmp_path):
        # a mode other than fixed or random used to run as random, with no records at n = 0
        out = tmp_path / "o"
        path = write_cfg(tmp_path, SIM_CFG.replace("mode = fixed", "mode = rnadom")
                         .replace("n = 4\n", "").format(out=out))
        with pytest.raises(ConfigParseError, match=r"\[design\] mode must be fixed or random, "
                                                   r"got 'rnadom'"):
            cli.load_config(path)
        assert cli.main(["run", "--config", path]) == 2
        assert not out.exists()

    @pytest.mark.parametrize("detail", ["counts", "bogus", "individual"])
    def test_unknown_detail_exits_2(self, tmp_path, capsys, detail):
        # summary is the one value; counts wrote an empty N column before, and individual
        # an outcome file that the sufficient counts make redundant
        out = tmp_path / "o"
        path = write_cfg(tmp_path, SIM_CFG.replace("seed = 77", f"seed = 77\ndetail = {detail}")
                         .format(out=out))
        assert cli.main(["run", "--config", path]) == 2
        assert capsys.readouterr().err.startswith(
            f"config error: [run] detail must be summary, got '{detail}': the outcome file was "
            f"removed, since the counts are sufficient")
        assert not out.exists()

    @pytest.mark.parametrize("sources, named", [
        ("class = low_rank\nr = 2\nmatrix_file = {rho}", "class and matrix_file"),
        ("witness = cor2_line\nclass = low_rank\nr = 2", "witness and class"),
        ("witness = cor2_line\nclass = low_rank\nmatrix_file = {rho}", "witness and class and matrix_file"),
    ], ids=["class-file", "witness-class", "all-three"])
    def test_two_state_sources_exit_2(self, tmp_path, sources, named):
        # the README's [state] block says "pick one source"; none wins by precedence
        np.savetxt(tmp_path / "rho.txt", np.eye(2) / 2)
        out = tmp_path / "z"
        text = f"""
[basis]
kind = pauli
d = 2

[state]
{sources.format(rho=tmp_path / "rho.txt")}

[run]
task = zeta
out = {out}
"""
        path = write_cfg(tmp_path, text)
        with pytest.raises(ConfigParseError, match=rf"^\[state\] sets {named}; pick one source$"):
            cli.load_config(path)
        assert cli.main(["run", "--config", path]) == 2
        assert not out.exists()

    @pytest.mark.parametrize("state, named", [
        ("r = 2", "r"), ("s = 1", "s"), ("gamma = 1\nr = 2", "r, gamma")])
    def test_class_keys_without_class_exit_2(self, tmp_path, state, named):
        # used to exit 0 on the maximally mixed state, the keys dropped without a word
        out = tmp_path / "z"
        text = f"""
[basis]
kind = pauli
d = 2

[state]
{state}

[run]
task = zeta
out = {out}
"""
        path = write_cfg(tmp_path, text)
        with pytest.raises(ConfigParseError,
                           match=rf"^\[state\] {named}: read only with \[state\] class$"):
            cli.load_config(path)
        assert cli.main(["run", "--config", path]) == 2
        assert not out.exists()

    @pytest.mark.parametrize("design, named", [
        ("pi = 0.25,0.25,0.25,0.25", "pi"), ("mode = fixed\nxi = 0.1,0.2,0.3,0.4", "xi"),
        ("pi = 0.25,0.25,0.25,0.25\nxi = 0.1,0.2,0.3,0.4", "pi, xi")])
    def test_design_weights_under_fixed_mode_exit_2(self, tmp_path, design, named):
        # used to exit 0 with the weights unused; fixed is the default mode
        out = tmp_path / "z"
        text = f"""
[basis]
kind = pauli
d = 2

[design]
{design}

[run]
task = zeta
out = {out}
"""
        path = write_cfg(tmp_path, text)
        with pytest.raises(ConfigParseError,
                           match=rf"^\[design\] {named}: read only with \[design\] mode = random$"):
            cli.load_config(path)
        assert cli.main(["run", "--config", path]) == 2
        assert not out.exists()

    # canonical is no kind at all; the g_file rule rejects the key before the kind is built
    @pytest.mark.parametrize("kind", ["pauli", "hermitian", "canonical"])
    def test_g_file_under_another_kind_exits_2(self, tmp_path, kind):
        # used to exit 0 with the axes unused; only a gvector family reads them
        np.savetxt(tmp_path / "g.txt", bases.haar_wavelet_vectors(4))
        out = tmp_path / "z"
        text = f"""
[basis]
kind = {kind}
d = 4
g_file = {tmp_path / "g.txt"}

[state]
witness = cor2_line

[run]
task = zeta
out = {out}
"""
        path = write_cfg(tmp_path, text)
        with pytest.raises(ConfigParseError,
                           match=r"^\[basis\] g_file: read only with \[basis\] kind = gvector$"):
            cli.load_config(path)
        assert cli.main(["run", "--config", path]) == 2
        assert not out.exists()

    def test_zeta_reads_witnesses_only_from_its_section(self, tmp_path):
        text = """
[basis]
kind = pauli
d = 4

[run]
task = zeta
seed = 2
out = {out}

[corollaries]
witnesses = cor3_tilted
"""
        # [corollaries] has no witnesses key, so the loader rejects it rather
        # than run the zeta task on the configured state alone
        out = tmp_path / "z"
        path = write_cfg(tmp_path, text.format(out=out))
        with pytest.raises(ConfigParseError, match=r"\[corollaries\] witnesses"):
            cli.load_config(path)
        assert cli.main(["run", "--config", path]) == 2
        assert not out.exists()

    @pytest.mark.parametrize("section, key", [
        ("tolerances", "active_tol"),   # the active-cell window is the constant ACTIVE_TOL
        ("transfer", "theta"),          # estimator_transfer reads no theta
        ("scaling", "tv_samples"),      # tv_samples is read from [distances] only
        ("run", "threds"),
        ("DEFAULT", "seed"),            # no setting reads [DEFAULT], whose keys every section gets
    ])
    def test_key_no_setting_reads_exits_2(self, tmp_path, section, key):
        sections = {"run": {"task": "zeta", "seed": 2, "out": tmp_path / "z"}}
        sections.setdefault(section, {})[key] = "1e-3"
        text = "\n".join(f"[{name}]\n" + "".join(f"{k} = {v}\n" for k, v in keys.items())
                         for name, keys in sections.items())
        path = write_cfg(tmp_path, text)
        with pytest.raises(ConfigParseError,
                           match=rf"^read by no setting of task zeta: \[{section}\] {key}$"):
            cli.load_config(path)
        assert cli.main(["run", "--config", path]) == 2
        assert not (tmp_path / "z").exists()

    @pytest.mark.parametrize("task, key", [("distances", "detail"), ("distances", "m"),
                                           ("translate", "detail"), ("corollaries", "n")])
    def test_run_key_only_another_task_reads_exits_2(self, tmp_path, task, key):
        # [run] n and m are read by simulate and translate, detail by simulate alone;
        # distances with detail = individual used to exit 0 and ignore it
        out = tmp_path / "o"
        text = f"[run]\ntask = {task}\nseed = 1\nout = {out}\n{key} = individual\n"
        path = write_cfg(tmp_path, text)
        with pytest.raises(ConfigParseError,
                           match=rf"^read by no setting of task {task}: \[run\] {key}$"):
            cli.load_config(path)
        assert cli.main(["run", "--config", path]) == 2
        assert not out.exists()

    @pytest.mark.parametrize("task, keys", [
        ("scaling", {"state": {"witness": "cor2_line"}, "distances": {"tv_samples": 100}}),
        ("distances", {"basis": {"d": 4}, "tolerances": {"c0": 0.2, "c1": 0.8},
                       "design": {"mode": "random"}}),
        ("estimator_transfer", {"design": {"mode": "random"}}),
    ], ids=["scaling", "distances", "estimator_transfer"])
    def test_key_the_task_never_reads_exits_2(self, tmp_path, capsys, task, keys):
        # each of these configs used to exit 0 and ignore the keys
        out = tmp_path / "o"
        sections = {"run": {"task": task, "seed": 1, "out": out}, **keys}
        text = "\n".join(f"[{name}]\n" + "".join(f"{k} = {v}\n" for k, v in pairs.items())
                         for name, pairs in sections.items())
        assert cli.main(["run", "--config", write_cfg(tmp_path, text)]) == 2
        named = sorted(f"[{name}] {k}" for name, pairs in keys.items() for k in pairs)
        assert capsys.readouterr().err == (f"config error: read by no setting of task {task}: "
                                           f"{', '.join(named)}\n")
        assert not out.exists()

    def test_each_key_is_read_by_the_tasks_that_use_it(self):
        def readers(section, key):
            return {task for task in cli.TASKS if (section, key) in cli._KEYS[task]}

        inputs = {"simulate", "translate", "zeta", "estimator_transfer"}
        everywhere = [("basis", "kind"), ("run", "task"), ("run", "seed"), ("run", "out"),
                      ("run", "threads")]
        assert all(readers(*key) == set(cli.TASKS) for key in everywhere)
        assert readers("basis", "d") == inputs | {"corollaries"}
        for key in ["witness", "beta", "j_star", "class", "s", "r", "gamma", "matrix_file"]:
            assert readers("state", key) == inputs
        assert readers("basis", "g_file") == inputs
        for key in ["mode", "pi", "xi"]:
            assert readers("design", key) == {"simulate", "translate", "zeta"}
        assert readers("tolerances", "c0") == readers("tolerances", "c1") == {"zeta"}
        assert readers("distances", "tv_samples") == {"distances"}
        assert readers("transfer", "replications") == {"estimator_transfer"}
        assert readers("zeta", "witnesses") == readers("zeta", "witness_files") == {"zeta"}
        assert readers("corollaries", "samples") == {"corollaries"}


# matrix files that hold no square matrix of finite numbers
BAD_FILES = {
    "empty": "",
    "comments-only": "# 0.5 0\n\n",
    "ragged": "0.5 0\n0.5\n",
    "non-square": "0.5 0 0\n0 0.5 0\n",
    "over-long": "0.5 0\n0 0.5\n0 0\n",
    "non-numeric": "0.5 x\n0 0.5\n",
    "old-header-format": "2\n0.5+0i 0+0i\n0+0i 0.5+0i\n",
    "nan": "nan 0\n0 0.5\n",
}


class TestMatrixFile:
    """A state or g-vector file is numpy text, one matrix row a line, as np.savetxt writes it."""

    ZETA = """
[basis]
kind = {kind}
d = {d}
{g_line}

[state]
{state_line}

[run]
task = zeta
seed = 2
out = {out}

[zeta]
{zeta_line}
"""

    @staticmethod
    def state():
        rng = np.random.default_rng(5)
        a = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        rho = a @ a.conj().T
        rho /= np.trace(rho).real
        rho[0, 0] = complex(rho[0, 0].real, -0.0)
        rho[1, 1] = complex(rho[1, 1].real, 0.0)
        return rho

    @pytest.mark.parametrize("fmt", [{}, {"fmt": "%.17g"}], ids=["default", "17g"])
    def test_state_reads_back_bit_for_bit(self, tmp_path, monkeypatch, fmt):
        rho = self.state()
        assert np.signbit(rho[0, 0].imag) and not np.signbit(rho[1, 1].imag)
        np.savetxt(tmp_path / "rho.txt", rho, **fmt)
        read = []
        validate = states.validate_density
        monkeypatch.setattr(states, "validate_density",
                            lambda mat: read.append(mat) or validate(mat))
        text = self.ZETA.format(kind="pauli", d=4, g_line="", out=tmp_path / "z",
                                state_line=f"matrix_file = {tmp_path / 'rho.txt'}",
                                zeta_line=f"witness_files = {tmp_path / 'rho.txt'}")
        assert cli.main(["run", "--config", write_cfg(tmp_path, text)]) == 0
        assert len(read) == 2  # the configured state, then the witness
        for mat in read:
            assert mat.dtype == complex and mat.tobytes() == rho.tobytes()

    @pytest.mark.parametrize("fmt", [{}, {"fmt": "%.17g"}], ids=["default", "17g"])
    def test_g_vectors_read_back_bit_for_bit(self, tmp_path, fmt):
        g = np.linalg.qr(np.random.default_rng(3).normal(size=(4, 4)))[0]
        np.savetxt(tmp_path / "g.txt", g, **fmt)
        text = self.ZETA.format(kind="gvector", d=4, g_line=f"g_file = {tmp_path / 'g.txt'}",
                                state_line="", zeta_line="", out=tmp_path / "z")
        basis = cli._build_basis(cli.load_config(write_cfg(tmp_path, text)))
        assert basis.g_vectors.dtype == float and basis.g_vectors.tobytes() == g.tobytes()


    # build_basis rejects a non-finite axis with its own message (test_nan_g_file_exits_2)
    @pytest.mark.parametrize("role, name", [
        (role, name) for role in ("matrix_file", "witness_files", "g_file") for name in BAD_FILES
        if (role, name) != ("g_file", "nan")])
    def test_bad_file_exits_2_naming_it(self, tmp_path, capsys, role, name):
        path = tmp_path / f"{name}.txt"
        path.write_text(BAD_FILES[name])
        text = self.ZETA.format(
            kind="gvector" if role == "g_file" else "pauli", d=2, out=tmp_path / "z",
            g_line=f"g_file = {path}" if role == "g_file" else "",
            state_line=f"matrix_file = {path}" if role == "matrix_file" else "",
            zeta_line=f"witness_files = {path}" if role == "witness_files" else "")
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert cli.main(["run", "--config", write_cfg(tmp_path, text)]) == 2
        assert caught == []
        assert capsys.readouterr().err.startswith(f"config error: matrix file {path}: ")
        assert not (tmp_path / "z").exists()

    @pytest.mark.parametrize("role", ["matrix_file", "witness_files", "g_file"])
    def test_size_other_than_d_exits_2_naming_file_and_d(self, tmp_path, capsys, role):
        # a valid 2 x 2 state or axis set under d = 4 used to fail later, in the state or
        # basis checks, with a message that named neither the file nor [basis] d
        path = tmp_path / "two.txt"
        np.savetxt(path, np.eye(2) / 2 if role != "g_file" else np.eye(2))
        text = self.ZETA.format(
            kind="gvector" if role == "g_file" else "pauli", d=4, out=tmp_path / "z",
            g_line=f"g_file = {path}" if role == "g_file" else "",
            state_line=f"matrix_file = {path}" if role == "matrix_file" else "",
            zeta_line=f"witness_files = {path}" if role == "witness_files" else "")
        assert cli.main(["run", "--config", write_cfg(tmp_path, text)]) == 2
        assert capsys.readouterr().err == (f"config error: matrix file {path}: expected a (4, 4) "
                                           f"matrix for [basis] d = 4, got shape (2, 2)\n")
        assert not (tmp_path / "z").exists()


class TestRun:
    def test_simulate_writes_artifacts(self, tmp_path):
        out = tmp_path / "simout"
        rc = cli.main(["run", "--config",
                       write_cfg(tmp_path, SIM_CFG.format(out=out))])
        assert rc == 0
        for name in ("tomography.csv", "coarse.csv", "fine.csv", "manifest.json"):
            assert (out / name).exists()
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["seed"] == 77
        assert "numpy" in manifest["versions"]

    def test_empty_random_run(self, tmp_path):
        text = """
[basis]
kind = pauli
d = 2

[design]
mode = random

[run]
task = simulate
n = 0
m = 4
seed = 1
out = {out}
"""
        out = tmp_path / "empty"
        rc = cli.main(["run", "--config", write_cfg(tmp_path, text.format(out=out))])
        assert rc == 0
        rows = (out / "tomography.csv").read_text().strip().splitlines()
        assert rows == ["k,j,m,counts,N"]
        assert (out / "manifest.json").exists()

    def test_canonical_kind_exits_2(self, tmp_path, capsys):
        # every family measures Hermitian members only, so the masking units are no kind
        text = SIM_CFG.replace("kind = pauli", "kind = canonical").format(out=tmp_path / "c")
        assert cli.main(["run", "--config", write_cfg(tmp_path, text)]) == 2
        assert "unknown basis kind 'canonical'" in capsys.readouterr().err
        assert not (tmp_path / "c").exists()

    @pytest.mark.parametrize("task, run_keys, section", [
        ("distances", "", "[distances]\ntheta = 0.5,0.5\nm_grid = 16\ntv_samples = 100\n"),
        ("simulate", "n = 4\nm = 16\n", "")], ids=["distances", "simulate"])
    def test_unknown_kind_exits_2_under_every_task(self, tmp_path, capsys, task, run_keys,
                                                   section):
        # a task that builds no family used to run and pass with any kind
        out = tmp_path / "o"
        path = write_cfg(tmp_path, f"[basis]\nkind = canonical\n\n[run]\ntask = {task}\n"
                                   f"out = {out}\n{run_keys}\n{section}")
        want = f"unknown basis kind 'canonical': [basis] kind must be one of {bases._KINDS}"
        with pytest.raises(ConfigParseError, match=re.escape(want)):
            cli.load_config(path)
        assert cli.main(["run", "--config", path]) == 2
        assert want in capsys.readouterr().err
        assert not out.exists()

    def test_default_weights_uniform_when_all_measurable(self, tmp_path):
        # every member is measurable, so both default designs are uniform, bit for bit
        cfg = cli.load_config(write_cfg(tmp_path, SIM_CFG.format(out=tmp_path)))
        cfg.design_mode = "random"
        for kind, d in [("pauli", 2), ("hermitian", 3), ("gvector", 4), ("pauli", 16)]:
            basis = bases.build_basis(kind, d, g_vectors=bases.default_g_vectors(d))
            design = cli._build_design(cfg, basis)
            uniform = np.full(d * d, 1.0 / (d * d)).tobytes()
            assert design.weights_regression.tobytes() == uniform
            assert design.weights_tomography.tobytes() == uniform

    def test_manifest_records_rng_contract(self, tmp_path):
        out = tmp_path / "m"
        assert cli.main(["run", "--config", write_cfg(tmp_path, SIM_CFG.format(out=out))]) == 0
        assert json.loads((out / "manifest.json").read_text())["rng_contract"] == 3

    def test_repeated_grid_points_draw_own_tv_streams(self, tmp_path):
        text = """
[run]
task = distances
seed = 5
out = {out}

[distances]
theta = 0.5,0.5; 0.5,0.5
m_grid = 16
tv_samples = 2000
"""
        out = tmp_path / "tv"
        assert cli.main(["run", "--config", write_cfg(tmp_path, text.format(out=out))]) == 0
        first, second = json.loads((out / "distances.json").read_text())["grid"]
        assert first["hellinger"] == second["hellinger"]
        assert first["tv"] != second["tv"]

    def test_distance_rows_share_one_shape(self, tmp_path):
        # a deterministic point (one active cell) writes the same fields as a
        # 2-cell point, its distances and budget exact zeros, and the run
        # writes the one table and its manifest
        text = f"""
[run]
task = distances
seed = 5
out = {tmp_path / "o"}

[distances]
theta = 1,0; 0.3,0.7
m_grid = 16
tv_samples = 100
"""
        assert cli.main(["run", "--config", write_cfg(tmp_path, text)]) == 0
        assert sorted(p.name for p in (tmp_path / "o").iterdir()) == ["distances.json",
                                                                     "manifest.json"]
        fixed, drawn = json.loads((tmp_path / "o" / "distances.json").read_text())["grid"]
        assert fixed.keys() == drawn.keys()
        assert (fixed["theta"], fixed["m"], fixed["tv_le_hellinger"]) == ([1.0, 0.0], 16, True)
        for key in ("hellinger", "hellinger_err", "order_term", "tail_p", "tail_q",
                    "truncation", "rounding", "tv", "tv_err", "tv_half_width"):
            assert fixed[key] == 0.0 and type(fixed[key]) is float
            assert drawn[key] > 0

    def test_one_thread_runs_points_in_the_calling_thread(self, tmp_path, monkeypatch):
        idents = []
        hellinger = cli.equivalence.hellinger_perturbed_vs_gaussian
        monkeypatch.setattr(cli.equivalence, "hellinger_perturbed_vs_gaussian",
                            lambda *args: idents.append(threading.get_ident()) or hellinger(*args))
        for task in ("distances", "scaling"):
            text = f"""
[run]
task = {task}
seed = 5
out = {tmp_path / task}

[{task}]
m_grid = 16,64,256,1024
{"tv_samples = 100" if task == "distances" else ""}
"""
            assert cli.main(["run", "--config", write_cfg(tmp_path, text), "--threads", "1"]) == 0
        assert idents == [threading.get_ident()] * 8

    def test_byte_identical_reruns(self, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        cfg1 = write_cfg(tmp_path, SIM_CFG.format(out=out1), "a.cfg")
        cfg2 = write_cfg(tmp_path, SIM_CFG.format(out=out2), "b.cfg")
        assert cli.main(["run", "--config", cfg1]) == 0
        assert cli.main(["run", "--config", cfg2]) == 0
        for name in ("tomography.csv", "coarse.csv", "fine.csv"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    @pytest.mark.parametrize("task, grid, names", [
        ("distances", "theta = 0.5,0.5; 0.2,0.3,0.5; 0.1,0.2,0.3,0.4\nm_grid = 16,64\n"
         "tv_samples = 5000", ("distances.json",)),
        ("scaling", "theta = 0.5,0.5; 0.2,0.3,0.5\nm_grid = 16,64,256,1024",
         ("scaling_0.json", "scaling_1.json"))],
        ids=["distances", "scaling"])
    def test_thread_count_does_not_change_artifacts(self, tmp_path, task, grid, names):
        text = f"""
[run]
task = {task}
seed = 5
out = {{out}}

[{task}]
{grid}
"""
        out1, out2 = tmp_path / "t1", tmp_path / "t4"
        cfg1 = write_cfg(tmp_path, text.format(out=out1), "t1.cfg")
        cfg2 = write_cfg(tmp_path, text.format(out=out2), "t4.cfg")
        assert cli.main(["run", "--config", cfg1, "--threads", "1"]) == 0
        assert cli.main(["run", "--config", cfg2, "--threads", "4"]) == 0
        for name in names:
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    @pytest.mark.parametrize("task", ["distances", "scaling"])
    def test_threads_run_grid_points_on_the_pool(self, tmp_path, monkeypatch, task):
        # --threads is honoured by both grid tasks, not only by distances
        idents = []
        hellinger = cli.equivalence.hellinger_perturbed_vs_gaussian
        monkeypatch.setattr(cli.equivalence, "hellinger_perturbed_vs_gaussian",
                            lambda *args: idents.append(threading.get_ident()) or hellinger(*args))
        text = f"""
[run]
task = {task}
seed = 5
out = {tmp_path / "o"}

[{task}]
theta = 0.5,0.5; 0.3,0.7
m_grid = 16,64,256,1024
{"tv_samples = 100" if task == "distances" else ""}
"""
        assert cli.main(["run", "--config", write_cfg(tmp_path, text), "--threads", "2"]) == 0
        assert len(idents) == 8
        assert threading.get_ident() not in idents

    def test_simulate_thread_count_does_not_change_artifacts(self, tmp_path):
        outs = []
        for threads in ("1", "4"):
            out = tmp_path / f"t{threads}"
            cfg = write_cfg(tmp_path, golden_cfg("simulate", out), f"t{threads}.cfg")
            assert cli.main(["run", "--config", cfg, "--threads", threads]) == 0
            outs.append(out)
        for name in ("tomography.csv", "coarse.csv", "fine.csv"):
            assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()

    def test_golden_artifact_hashes(self, tmp_path):
        got = {}
        for task in ("simulate", "translate"):
            out = tmp_path / task
            cfg = write_cfg(tmp_path, golden_cfg(task, out), f"{task}.cfg")
            assert cli.main(["run", "--config", cfg]) == 0
            got.update({path.name: hashlib.sha256(path.read_bytes()).hexdigest()
                        for path in out.glob("*.csv")})
        assert got == GOLDEN_SHA256

    def test_task_artifact_hashes(self, tmp_path):
        got = {}
        for task in ("distances", "scaling", "zeta", "corollaries", "estimator_transfer"):
            out = tmp_path / task
            cfg = write_cfg(tmp_path, golden_cfg(task, out), f"{task}.cfg")
            rc = cli.main(["run", "--config", cfg])
            assert rc == (1 if task == "corollaries" else 0)
            got.update({path.name: hashlib.sha256(path.read_bytes()).hexdigest()
                        for path in out.iterdir() if path.name != "manifest.json"})
        assert got == TASK_SHA256

    def test_no_run_path_builds_members(self, tmp_path, monkeypatch):
        # every law, draw and check reads the spectra and the closed-form cell law, so the
        # (p, d, d) members are built only for estimator_transfer's norms
        def unbuilt(basis):
            raise AssertionError(f"the {basis.kind} members were built")

        monkeypatch.setattr(bases.ObservableBasis, "matrices", property(unbuilt))
        got = {}
        for task in ("simulate", "translate", "zeta", "distances", "scaling", "corollaries"):
            out = tmp_path / task
            cfg = write_cfg(tmp_path, golden_cfg(task, out), f"{task}.cfg")
            assert cli.main(["run", "--config", cfg]) == (1 if task == "corollaries" else 0)
            got.update({path.name: hashlib.sha256(path.read_bytes()).hexdigest()
                        for path in out.iterdir()})
        pins = {**GOLDEN_SHA256, **TASK_SHA256}
        del pins["transfer.json"]
        assert {name: got.get(name) for name in pins} == pins
        cfg = write_cfg(tmp_path, golden_cfg("estimator_transfer", tmp_path / "t"), "t.cfg")
        with pytest.raises(AssertionError, match="the pauli members were built"):
            cli.main(["run", "--config", cfg])

    def test_translate_roundtrip_check(self, tmp_path):
        text = SIM_CFG.replace("task = simulate", "task = translate")
        out = tmp_path / "tr"
        rc = cli.main(["run", "--config", write_cfg(tmp_path, text.format(out=out))])
        assert rc == 0
        payload = json.loads((out / "translate.json").read_text())
        assert payload["roundtrip_exact"] is True
        assert payload["dropped"] == 0

    def test_corollaries_reports_known_defect(self, tmp_path):
        # the nominal sparse-entry count bound is unattainable (see the README
        # section "Nominal count constants"); the suite must report it honestly
        # and exit nonzero
        text = """
[basis]
kind = pauli
d = 4

[run]
task = corollaries
seed = 5
out = {out}

[corollaries]
samples = 8
"""
        out = tmp_path / "cor"
        rc = cli.main(["run", "--config", write_cfg(tmp_path, text.format(out=out))])
        assert rc == 1
        payload = json.loads((out / "corollaries.json").read_text())
        by_name = {c["anchor"]: c for c in payload["checks"]}
        assert by_name["corollary2"]["passed"] is True
        assert by_name["corollary3"]["passed"] is True
        assert by_name["corollary1"]["passed"] is False
        for block in by_name["corollary1"]["details"].values():
            assert block["corrected_rule_ok"] is True
        for block in by_name["corollary4"]["details"].values():
            assert block["corrected_rule_ok"] is True

    def test_zeta_task(self, tmp_path):
        text = """
[basis]
kind = pauli
d = 4

[run]
task = zeta
seed = 2
out = {out}

[zeta]
witnesses = cor2_line, cor3_tilted
"""
        out = tmp_path / "z"
        rc = cli.main(["run", "--config", write_cfg(tmp_path, text.format(out=out))])
        assert rc == 0
        payload = json.loads((out / "zeta.json").read_text())
        assert payload["zeta"] == pytest.approx(15 / 16)

    def test_zeta_c3_window(self, tmp_path):
        text = """
[basis]
kind = pauli
d = 4

[state]
witness = cor2_line
beta = 0.5
j_star = 1

[run]
task = zeta
seed = 2
out = {out}

[tolerances]
c0 = 0.2
c1 = 0.8

[zeta]
witnesses = cor2_line
"""
        out = tmp_path / "zc"
        rc = cli.main(["run", "--config", write_cfg(tmp_path, text.format(out=out))])
        assert rc == 0
        payload = json.loads((out / "zeta.json").read_text())
        assert payload["c3_ok"] is True
        assert payload["active_trace_min"] == pytest.approx(0.25)
        assert payload["c3_bounds"] == [0.2, 0.8]
        # a window the witness traces escape must fail the check
        rc = cli.main(["run", "--config", write_cfg(
            tmp_path, text.replace("c0 = 0.2", "c0 = 0.3").format(out=tmp_path / "zc2"),
            "tight.cfg")])
        assert rc == 1
        assert json.loads((tmp_path / "zc2" / "zeta.json").read_text())["c3_ok"] is False

    def test_zeta_c3_window_without_active_trace(self, tmp_path, capsys, monkeypatch):
        # no built-in family leaves every cell inactive, but the diagonal units do on
        # |1><1|: every cell trace is 0 or 1, so c3_ok is null and the window check fails
        units = custom_basis([np.diag([1.0, 0.0]), np.diag([0.0, 1.0])])
        monkeypatch.setattr(bases, "build_basis", lambda *args, **kwargs: units)
        rho = tmp_path / "rho.txt"
        np.savetxt(rho, np.diag([1.0, 0.0]))
        text = f"""
[basis]
kind = hermitian
d = 2

[run]
task = zeta
seed = 2
out = {tmp_path / "z"}

[tolerances]
c0 = 0.2
c1 = 0.8

[zeta]
witness_files = {rho}
"""
        assert cli.main(["run", "--config", write_cfg(tmp_path, text)]) == 1
        assert "[FAIL] c3-trace-window" in capsys.readouterr().out
        payload = json.loads((tmp_path / "z" / "zeta.json").read_text())
        assert payload["c3_ok"] is None and payload["active_trace_min"] is None
        assert payload["zeta"] == 0.0 and payload["states"] == ["rho.txt"]

    def test_config_error_exit_code(self, tmp_path):
        rc = cli.main(["run", "--config", str(tmp_path / "missing.cfg")])
        assert rc == 2

    def test_zeta_rerun_leaves_config_unchanged(self, tmp_path):
        rho = tmp_path / "rho.txt"
        np.savetxt(rho, np.eye(4) / 4)
        text = f"""
[basis]
kind = pauli
d = 4

[run]
task = zeta
seed = 2
out = {tmp_path / "z"}

[zeta]
witnesses = cor2_line
witness_files = {rho}
"""
        cfg = cli.load_config(write_cfg(tmp_path, text))
        first = cli.run(cfg)
        payload = (tmp_path / "z" / "zeta.json").read_bytes()
        second = cli.run(cfg)
        assert (tmp_path / "z" / "zeta.json").read_bytes() == payload
        assert cfg.witnesses == ["cor2_line"]
        assert json.loads(payload)["states"] == ["cor2_line", "rho.txt"]
        assert first == second

    @pytest.mark.parametrize("task", ["distances", "scaling"])
    def test_grid_tasks_build_no_basis_or_state(self, tmp_path, monkeypatch, task):
        def no_build(*args, **kwargs):
            raise AssertionError("a basis or state was built")

        monkeypatch.setattr(bases, "build_basis", no_build)
        monkeypatch.setattr(states, "validate_density", no_build)
        text = f"""
[basis]
kind = gvector

[run]
task = {task}
seed = 1
out = {tmp_path / task}

[{task}]
theta = 0.5,0.5
m_grid = 16,64,256,1024
{"tv_samples = 100" if task == "distances" else ""}
"""
        assert cli.main(["run", "--config", write_cfg(tmp_path, text)]) == 0


class TestEstimatorTransfer:
    def test_identity_coefficient_exact(self):
        basis = bases.build_basis("pauli", 4)
        st = states.pauli_line_state(4, 1, 0.5)
        report = regression.estimator_transfer(st, basis, 16, seed=3, replications=200)
        assert report["per_j_sq_error_counts"][0] == pytest.approx(0.0, abs=1e-28)

    def test_line_coefficient_recovered(self):
        d, beta, j_star = 4, 0.5, 1
        basis = bases.build_basis("pauli", d)
        st = states.pauli_line_state(d, j_star, beta)
        report = regression.estimator_transfer(st, basis, 256, seed=3, replications=3000)
        # squared error of alpha_j* estimates its sampling variance
        # Var(N_j*)/d^2 = (1 - beta^2)/(m d^2); the bias is zero
        want = (1 - beta ** 2) / (256 * d * d)
        assert report["per_j_sq_error_counts"][j_star] == pytest.approx(want, rel=0.15)
        assert report["per_j_sq_error_gaussian"][j_star] == pytest.approx(want, rel=0.15)
        assert report["risk_counts"] == pytest.approx(report["risk_gaussian"],
                                                      rel=0.2)

    def test_sweep_monotone(self):
        basis = bases.build_basis("pauli", 4)
        st = states.pauli_line_state(4, 1, 0.5)
        report = regression.estimator_transfer_sweep(st, basis, [16, 256], seed=6,
                                                     replications=500)
        assert report["monotone"] is True
