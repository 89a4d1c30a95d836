import json
import math
import os
import resource
import subprocess
import sys
from pathlib import Path

import pytest

from tcinit import simulate, tensor, transform
from tcinit.cli import VERIFY_BUILTINS, main
from tcinit.formats import builtin_format
from tcinit.graph import BASELINE_MODES, GRAPH_MODES, make_plan


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def at_one_and_two_blas_threads(runs):
    """The stdout of ``main`` over each argv of ``runs``, in a subprocess
    whose OpenBLAS runs 1 thread, then in one whose OpenBLAS runs 2."""
    script = ("import json, sys\nfrom tcinit.cli import main\n"
              "sys.exit(max([main(argv) for argv in json.loads(sys.argv[1])]))")
    src = str(Path(tensor.__file__).resolve().parents[1])
    outs = []
    for threads in ("1", "2"):
        env = {**os.environ, "PYTHONPATH": src, "OPENBLAS_NUM_THREADS": threads,
               "OMP_NUM_THREADS": threads}
        done = subprocess.run([sys.executable, "-c", script, json.dumps(runs)], env=env,
                              capture_output=True, timeout=120)
        assert done.returncode == 0, done.stderr
        outs.append(done.stdout)
    return outs


class TestAnalyze:
    def test_standard_conv_values(self, capsys):
        code, out, _ = run(
            capsys,
            "analyze", "--builtin", "standard",
            "-P", "c_in=96", "-P", "c_out=96", "-P", "k=3", "-P", "alpha=8",
            "--act", "tanh",
        )
        assert code == 0
        report = json.loads(out)
        assert report["graph_in_sigma2"] == pytest.approx(1 / 864, rel=1e-12)
        assert report["baselines"]["xavier-in"]["w"] == pytest.approx(1 / 864)
        assert report["fan_in"]["edge_product"] == 864

    def test_htk2_values(self, capsys):
        code, out, _ = run(
            capsys,
            "analyze", "--builtin", "htk2",
            "-P", "c_in=96", "-P", "c_out=96", "-P", "rank=10",
            "-P", "k=3", "-P", "alpha=8", "--act", "tanh",
        )
        assert code == 0
        report = json.loads(out)
        assert report["fan_in"]["edge_product"] == 86400
        assert report["graph_in_sigma2"] == pytest.approx(
            (4 * 86400) ** (-1 / 3), rel=1e-9
        )

    def test_malformed_file_exits_2_with_line(self, capsys, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("vertex x input\nedge z sprocket 3 x\n")
        code, _, err = run(capsys, "analyze", "--format", str(path))
        assert code == 2
        assert "line 2" in err

    def test_missing_format_exits_2(self, capsys):
        code, _, err = run(capsys, "analyze")
        assert code == 2
        assert "format" in err

    def test_csv_emission(self, capsys):
        code, out, _ = run(
            capsys,
            "analyze", "--builtin", "standard",
            "-P", "c_in=4", "-P", "c_out=4", "--emit", "csv",
        )
        assert code == 0
        assert out.splitlines()[0] == "mode,vertex,sigma2"

    def test_byte_identical_reruns(self, capsys):
        args = (
            "analyze", "--builtin", "tt",
            "-P", "i_dims=4,4", "-P", "o_dims=4,4", "-P", "rank=3",
        )
        _, out1, _ = run(capsys, *args)
        _, out2, _ = run(capsys, *args)
        assert out1 == out2


    def test_edge_product_beyond_float_range(self, capsys):
        code, out, err = run(
            capsys,
            "analyze", "--builtin", "tt",
            "-P", "i_dims=" + ",".join(["100000"] * 66),
            "-P", "o_dims=" + ",".join(["2"] * 66),
            "-P", "rank=2",
        )
        assert code == 0, err
        report = json.loads(out)
        assert report["fan_in"]["edge_product"] == 100000**66 * 2**65
        for key in ("graph_in_sigma2", "graph_out_sigma2"):
            assert math.isfinite(report[key]) and report[key] > 0
        for values in report["baselines"].values():
            assert all(math.isfinite(v) and v >= 0 for v in values.values())

    @pytest.mark.parametrize("act", tensor.ACTIVATIONS)
    @pytest.mark.parametrize("name,params", VERIFY_BUILTINS, ids=[n for n, _ in VERIFY_BUILTINS])
    def test_reports_what_make_plan_derives(self, capsys, name, params, act):
        flags = [flag for key, value in params.items() for flag in (
            "-P", f"{key}={','.join(map(str, value)) if isinstance(value, tuple) else value}")]
        code, out, err = run(capsys, "analyze", "--builtin", name, *flags, "--act", act)
        assert code == 0, err
        report = json.loads(out)
        f = builtin_format(name, **params)
        for mode in GRAPH_MODES:
            plan = make_plan(f, mode, act)
            sigma2 = report[mode.replace("-", "_") + "_sigma2"]
            assert plan.variances == {vid: sigma2 for vid in f.weight_ids}
            assert report["p_a"] == plan.p_a
        for mode in BASELINE_MODES:
            assert report["baselines"][mode] == make_plan(f, mode, act).variances


class TestSimulate:
    ARGS = (
        "simulate", "--builtin", "tt",
        "-P", "i_dims=4,4", "-P", "o_dims=4,4", "-P", "rank=3",
        "--depth", "2", "--trials", "4", "--batch", "8",
    )

    def test_writes_json_and_csv(self, capsys, tmp_path):
        stem = tmp_path / "trace"
        code, _, _ = run(capsys, *self.ARGS, "--seed", "3", "--out", str(stem))
        assert code == 0
        report = json.loads(stem.with_suffix(".json").read_text())
        assert len(report["layers"]) == 2
        assert all(l["grad_var"] > 0 for l in report["layers"])
        csv_text = stem.with_suffix(".csv").read_text()
        assert csv_text.startswith("layer,pre_var")

    def test_requires_seed(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(list(self.ARGS))
        assert exc.value.code == 1

    def test_worker_invariant_bytes(self, capsys, tmp_path):
        a = tmp_path / "a"
        b = tmp_path / "b"
        run(capsys, *self.ARGS, "--seed", "5", "--workers", "1", "--out", str(a))
        run(capsys, *self.ARGS, "--seed", "5", "--workers", "4", "--out", str(b))
        assert a.with_suffix(".json").read_bytes() == b.with_suffix(".json").read_bytes()
        assert a.with_suffix(".csv").read_bytes() == b.with_suffix(".csv").read_bytes()

    def test_blas_thread_invariant_bytes(self):
        # The conv_depth benchmark stack, whose backward GEMMs OpenBLAS splits
        # over two threads, and a wider standard conv stack.
        runs = [
            ["simulate", "--builtin", "htk2", "-P", "c_in=32", "-P", "c_out=32",
             "-P", "rank=8", "-P", "k=3", "-P", "padding=1", "-P", "alpha=32",
             "--depth", "5", "--act", "tanh", "--mode", "graph-in", "--batch", "16",
             "--trials", "2", "--seed", "3"],
            ["simulate", "--builtin", "standard", "-P", "c_in=64", "-P", "c_out=64",
             "-P", "k=3", "-P", "padding=1", "-P", "alpha=32", "--trials", "2",
             "--batch", "8", "--seed", "3"],
        ]
        outs = at_one_and_two_blas_threads(runs)
        assert outs[0] == outs[1] and outs[0].count(b'"layers"') == 2

    def test_worker_count_invariant_bytes_at_two_blas_threads(self):
        # A standard stack of 400 channels, whose GEMMs OpenBLAS splits over
        # two threads, at one worker and at two.
        argv = ["simulate", "--builtin", "standard", "-P", "c_in=400", "-P", "c_out=400",
                "--batch", "32", "--depth", "2", "--trials", "4", "--seed", "0"]
        outs = [out for workers in ("1", "2")
                for out in at_one_and_two_blas_threads([[*argv, "--workers", workers]])]
        assert outs[0].count(b'"layers"') == 1 and outs.count(outs[0]) == 4

    def test_over_limit_input_exits_2(self, capsys):
        # The batched input would take about 4e15 bytes.
        code, _, err = run(
            capsys,
            "simulate", "--builtin", "standard",
            "-P", "c_in=16", "-P", "c_out=16", "-P", "k=3", "-P", "alpha=1000000",
            "--seed", "0", "--trials", "1",
        )
        assert code == 2
        assert "network input" in err and "limit" in err

    def test_over_limit_workspace_exits_2(self, capsys, monkeypatch):
        # Every array of this layer fits under the limit, but the 14,720
        # bytes its forward workspace holds at once do not.
        monkeypatch.setattr(tensor, "MEMORY_LIMIT", 14000)
        monkeypatch.setattr(simulate, "_draw", None)
        monkeypatch.setattr(simulate, "_stream", None)
        code, out, err = run(
            capsys,
            "simulate", "--builtin", "standard", "-P", "c_in=4", "-P", "c_out=4",
            "-P", "k=3", "-P", "spatial=1", "-P", "alpha=4", "-P", "padding=1",
            "--act", "identity", "--batch", "32", "--seed", "0", "--trials", "1",
        )
        assert code == 2
        assert out == "" and "workspace of layer 0" in err and "limit" in err

    def test_shape_mismatch_exits_2(self, capsys):
        code, _, err = run(
            capsys,
            "simulate", "--builtin", "tt",
            "-P", "i_dims=4,4", "-P", "o_dims=4,5", "-P", "rank=3",
            "--depth", "2", "--seed", "1",
        )
        assert code == 2
        assert "layer 1" in err

    def test_too_many_einsum_indices_exits_2(self, capsys):
        code, _, err = run(
            capsys,
            "simulate", "--builtin", "tt",
            "-P", "i_dims=" + ",".join(["2"] * 20),
            "-P", "o_dims=" + ",".join(["2"] * 20),
            "-P", "rank=2", "--seed", "0", "--trials", "1", "--batch", "2",
        )
        assert code == 2
        assert err.startswith("error:") and "60 distinct indices" in err

    def test_zero_trials_exits_2(self, capsys):
        code, out, err = run(
            capsys,
            "simulate", "--builtin", "tt",
            "-P", "i_dims=4,4", "-P", "o_dims=4,4", "-P", "rank=3",
            "--seed", "0", "--trials", "0",
        )
        assert code == 2
        assert out == "" and err.startswith("error:") and "trials" in err

    @pytest.mark.parametrize("workers", ["0", "-1"])
    def test_workers_below_one_exits_2(self, capsys, workers):
        code, out, err = run(capsys, *self.ARGS, "--seed", "0", "--workers", workers)
        assert code == 2
        assert out == "" and err.startswith("error:") and "workers" in err

    def test_one_forward_pass_per_trial(self, capsys, monkeypatch):
        # The report's activation and gradient statistics come from one pass
        # through the stack: each trial runs every layer forward once.
        trials = []
        original = simulate._contract

        def counting(f, x, replicas, backward, workspace=None, out=None):
            if not backward:
                trials.append(len(x))
            return original(f, x, replicas, backward, workspace, out)

        monkeypatch.setattr(simulate, "_contract", counting)
        code, _, _ = run(capsys, *self.ARGS, "--seed", "0")
        assert code == 0
        assert sum(trials) == 2 * 4  # depth * trials

    @pytest.mark.parametrize("depth", ["1000000", "100000000000"])
    def test_over_limit_depth_exits_2_before_building_the_stack(self, capsys, depth,
                                                                 monkeypatch):
        # Each layer keeps 924 entries per trial (156 weight and 768 output
        # entries), so a million layers need 7.392e9 bytes.
        monkeypatch.setattr(tensor, "MEMORY_LIMIT", 2**32)
        monkeypatch.setattr(simulate, "backward_trace", None)
        code, out, err = run(
            capsys,
            "simulate", "--builtin", "tt", "-P", "i_dims=4,6", "-P", "o_dims=4,6",
            "-P", "rank=3", "--seed", "0", "--depth", depth,
        )
        assert code == 2
        assert out == "" and f"of {depth} layers" in err and "limit" in err

    def test_one_validation_walk_per_run(self, capsys, monkeypatch):
        walks = []
        original = simulate.validate_network

        def counting(net, *args, **kwargs):
            walks.append(len(net.layers))
            return original(net, *args, **kwargs)

        monkeypatch.setattr(simulate, "validate_network", counting)
        code, _, _ = run(capsys, *self.ARGS, "--seed", "0")
        assert code == 0
        assert walks == [2]

    def test_over_limit_input_at_depth_2_exits_2(self, capsys):
        code, out, err = run(
            capsys,
            "simulate", "--builtin", "standard",
            "-P", "c_in=16", "-P", "c_out=16", "-P", "k=3", "-P", "alpha=1000000",
            "--seed", "0", "--trials", "1", "--depth", "2",
        )
        assert code == 2
        assert out == "" and err.startswith("error:") and err.count("\n") == 1
        assert "limit" in err

    @pytest.mark.parametrize("depth", ["0", "-1"])
    def test_no_layers_exits_2(self, capsys, depth):
        code, out, err = run(
            capsys,
            "simulate", "--builtin", "tt", "-P", "i_dims=4,6", "-P", "o_dims=4,6",
            "-P", "rank=3", "--seed", "0", "--depth", depth,
        )
        assert code == 2
        assert out == "" and err == "error: network has no layers\n"

    def test_address_space_limit_exits_2(self):
        # 700 MB of address space holds the interpreter and numpy, but not
        # the stack's 256 MiB activations; unchecked, numpy fails to allocate.
        def limit():
            resource.setrlimit(resource.RLIMIT_AS, (700 << 20, 700 << 20))

        src = str(Path(tensor.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": src, "OPENBLAS_NUM_THREADS": "1"}
        done = subprocess.run(
            [sys.executable, "-m", "tcinit.cli", "simulate", "--builtin", "standard",
             "-P", "c_in=32", "-P", "c_out=32", "-P", "k=3", "-P", "padding=1",
             "-P", "alpha=128", "--batch", "64", "--depth", "3", "--trials", "1",
             "--seed", "0"],
            env=env, preexec_fn=limit, capture_output=True, text=True, timeout=120,
        )
        assert done.returncode == 2, done.stderr
        assert done.stdout == "" and done.stderr.startswith("error:")
        assert done.stderr.count("\n") == 1 and "address-space limit" in done.stderr


class TestVerify:
    def test_passes_and_exits_zero(self, capsys):
        code, out, _ = run(capsys, "verify", "--seed", "2", "--random-formats", "10")
        assert code == 0
        report = json.loads(out)
        assert report["ok"]
        assert report["theorem1"]["ok"]
        assert report["closure"]["max_error"] < 1e-9

    def test_requires_seed(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["verify"])
        assert exc.value.code == 1

    def test_negative_random_formats_exits_2(self, capsys):
        code, out, err = run(capsys, "verify", "--seed", "0", "--random-formats", "-3")
        assert code == 2
        assert out == "" and err.startswith("error:") and "random-formats" in err

    def test_theorem1_failure_exits_3_and_names_the_case(self, capsys, monkeypatch):
        first = next(transform.theorem1_grid())
        monkeypatch.setattr(transform, "verify_theorem1", lambda spec: False)
        code, out, _ = run(capsys, "verify", "--seed", "0", "--random-formats", "0")
        assert code == 3
        report = json.loads(out)
        assert not report["ok"]
        assert report["theorem1"] == {
            "ok": False,
            "failed_at": [first.alpha, first.beta, first.stride, first.padding],
        }


class TestRandgen:
    def test_reproducible_files(self, capsys, tmp_path):
        d1, d2 = tmp_path / "a", tmp_path / "b"
        run(capsys, "randgen", "--seed", "7", "--count", "3", "--out", str(d1))
        run(capsys, "randgen", "--seed", "7", "--count", "3", "--out", str(d2))
        for i in range(3):
            f1 = (d1 / f"format_7_{i}.txt").read_bytes()
            f2 = (d2 / f"format_7_{i}.txt").read_bytes()
            assert f1 == f2

    def test_generated_files_parse_and_analyze(self, capsys, tmp_path):
        run(capsys, "randgen", "--seed", "8", "--count", "2", "--out", str(tmp_path))
        for i in range(2):
            code, out, _ = run(
                capsys, "analyze", "--format", str(tmp_path / f"format_8_{i}.txt")
            )
            assert code == 0
            assert json.loads(out)["graph_in_sigma2"] > 0

    @pytest.mark.parametrize("count", ["0", "-1"])
    def test_count_below_one_exits_2(self, capsys, tmp_path, count):
        code, out, err = run(
            capsys, "randgen", "--seed", "0", "--count", count, "--out", str(tmp_path)
        )
        assert code == 2
        assert out == "" and "count" in err
        assert list(tmp_path.iterdir()) == []

    def test_negative_seed_makes_no_directory(self, capsys, tmp_path):
        outdir = tmp_path / "formats"
        code, out, err = run(
            capsys, "randgen", "--seed", "-1", "--count", "2", "--out", str(outdir)
        )
        assert code == 2
        assert out == "" and err == "error: seed must be >= 0, got -1\n"
        assert not outdir.exists()


class TestScaleChain:
    def test_custom_chain(self, capsys):
        code, out, _ = run(
            capsys,
            "scale-chain", "--seed", "1", "--trials", "30", "--dims", "16,8,4",
        )
        assert code == 0
        table = json.loads(out)
        assert [row["contracted_dim"] for row in table] == [16, 8]

    def test_csv_and_determinism(self, capsys):
        args = ("scale-chain", "--seed", "2", "--trials", "10",
                "--dims", "8,4", "--emit", "csv")
        _, out1, _ = run(capsys, *args)
        _, out2, _ = run(capsys, *args)
        assert out1 == out2
        assert out1.splitlines()[0] == "step,contracted_dim,mean,std"

    def test_blas_thread_invariant_bytes(self):
        # At two BLAS threads these chain widths split their GEMMs, which
        # then add in another order unless BLAS is held at one thread.
        outs = at_one_and_two_blas_threads(
            [["scale-chain", "--seed", "0", "--trials", "5", "--dims", "200,400,600"]])
        assert outs[0] == outs[1] and outs[0].count(b'"step"') == 2

    def test_requires_seed(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["scale-chain"])
        assert exc.value.code == 1

    def test_zero_trials_exits_2(self, capsys):
        code, out, err = run(capsys, "scale-chain", "--seed", "0", "--trials", "0")
        assert code == 2
        assert out == "" and err.startswith("error:") and "trials" in err

    @pytest.mark.parametrize(
        "flag,value,word", [("--batch", "0", "batch"), ("--dims", "4,0", "dims")]
    )
    def test_batch_or_dims_below_one_exits_2(self, capsys, flag, value, word):
        code, out, err = run(
            capsys, "scale-chain", "--seed", "0", "--trials", "2", flag, value
        )
        assert code == 2
        assert out == "" and err.startswith("error:") and word in err


    @pytest.mark.parametrize(
        "extra,what",
        [
            (("--dims", "3000000000,2"), "chain input"),
            (("--dims", "4,5", "--batch", "3000000000"), "chain input"),
            (("--dims", "99999999999999999999,2"), "chain input"),
            (("--dims", "2,3000000000,2"), "weight of chain step 1"),
        ],
    )
    def test_over_limit_exits_2_before_drawing(self, capsys, monkeypatch, extra, what):
        def refuse(*args, **kwargs):
            raise AssertionError("scale-chain drew before checking its sizes")

        monkeypatch.setattr(simulate.np.random, "default_rng", refuse)
        code, out, err = run(capsys, "scale-chain", "--seed", "0", "--trials", "1", *extra)
        assert code == 2
        assert out == "" and what in err and "limit" in err

    def test_over_limit_trials_exit_2_before_drawing(self, capsys, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("scale-chain drew before checking its rows")

        monkeypatch.setattr(simulate, "_seed_words", refuse)
        code, out, err = run(capsys, "scale-chain", "--seed", "0",
                             "--trials", "1000000000000", "--dims", "4,4")
        assert code == 2
        assert out == "" and "scales of 1000000000000 trials" in err and "limit" in err


class TestUsage:
    STANDARD = ["-P", "c_in=2", "-P", "c_out=2"]

    def test_unknown_command(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 1

    def test_both_format_sources_rejected(self, capsys, tmp_path):
        path = tmp_path / "f.txt"
        path.write_text("phi 1\n")
        code, _, err = run(
            capsys, "analyze", "--format", str(path), "--builtin", "standard"
        )
        assert code == 2
        assert "not both" in err

    @pytest.mark.parametrize("command", ["analyze", "simulate"])
    @pytest.mark.parametrize("source", ["format", "builtin"])
    @pytest.mark.parametrize("phi", ["0", "-1"])
    def test_phi_below_one_exits_2(self, capsys, tmp_path, command, source, phi):
        path = tmp_path / "f.txt"
        path.write_text(
            "vertex x input\nvertex w weight\n"
            "edge c input-channel 2 x w\nedge o output-channel 2 w\n"
        )
        fmt = ["--format", str(path)] if source == "format" else [
            "--builtin", "standard", "-P", "c_in=2", "-P", "c_out=2",
        ]
        extra = ["--seed", "0", "--trials", "1"] if command == "simulate" else []
        code, out, err = run(capsys, command, *fmt, "--phi", phi, *extra)
        assert code == 2
        assert out == "" and err.startswith("error:") and "phi" in err

    def test_non_utf8_format_file_exits_2(self, capsys, tmp_path):
        path = tmp_path / "f.txt"
        path.write_bytes(b"\xff\xfe")
        code, out, err = run(capsys, "analyze", "--format", str(path))
        assert code == 2
        assert out == "" and err.startswith("error:")

    @pytest.mark.parametrize("argv,name", [
        (["analyze", "--builtin", "standard", *STANDARD, "-P", "k=3", "-P", "alpha=x"], "alpha"),
        (["analyze", "--builtin", "standard", *STANDARD, "-P", "k=3", "-P", "phi=x"], "phi"),
        (["analyze", "--builtin", "standard", *STANDARD, "-P", "k=x"], "k"),
        (["analyze", "--builtin", "standard", "-P", "c_in=abc", "-P", "c_out=2"], "c_in"),
        (["analyze", "--builtin", "standard", "-P", "c_in=2,3", "-P", "c_out=2"], "c_in"),
        (["analyze", "--builtin", "standard", "-P", "=3", *STANDARD], "=3"),
        (["analyze", "--builtin", "tt", "-P", "i_dims=4,x", "-P", "o_dims=4,4",
          "-P", "rank=2"], "i_dims"),
        (["scale-chain", "--seed", "0", "--trials", "2", "--dims", "4,x"], "dims"),
        (["scale-chain", "--seed", "0", "--trials", "2", "--dims", "4,,5"], "dims"),
    ])
    def test_malformed_integer_value_exits_2(self, capsys, argv, name):
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert out == "" and "Traceback" not in err
        assert err.startswith("error:") and err.count("\n") == 1 and name in err

    def test_repeated_param_exits_2(self, capsys):
        code, out, err = run(capsys, "analyze", "--builtin", "standard",
                             "-P", "c_in=3", "-P", "c_out=3", "-P", "c_in=5")
        assert code == 2
        assert out == "" and err.startswith("error:") and err.count("\n") == 1
        assert "c_in" in err

    @pytest.mark.parametrize("source", ["format", "builtin"])
    def test_phi_override_wins(self, capsys, tmp_path, source):
        path = tmp_path / "f.txt"
        path.write_text(
            "phi 2\nvertex x input\nvertex w weight\n"
            "edge c input-channel 2 x w\nedge o output-channel 2 w\n"
        )
        fmt = ["--format", str(path)] if source == "format" else [
            "--builtin", "standard", "-P", "c_in=2", "-P", "c_out=2", "-P", "phi=2",
        ]
        code, out, _ = run(capsys, "analyze", *fmt, "--phi", "3")
        assert code == 0
        assert json.loads(out)["phi"] == 3


@pytest.mark.parametrize(
    "argv",
    [
        ["simulate", "--builtin", "tt", "-P", "i_dims=4,4", "-P", "o_dims=4,4",
         "-P", "rank=3", "--trials", "1"],
        ["verify", "--random-formats", "1"],
        ["randgen", "--count", "1"],
        ["scale-chain", "--trials", "1", "--dims", "4,4"],
    ],
    ids=lambda argv: argv[0],
)
def test_negative_seed_exits_2(capsys, tmp_path, monkeypatch, argv):
    monkeypatch.chdir(tmp_path)
    code, out, err = run(capsys, *argv, "--seed", "-1")
    assert code == 2
    assert out == "" and err.startswith("error:") and "seed" in err
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "argv",
    [
        ["analyze", "--builtin", "htk2", "-P", "c_in=4", "-P", "c_out=4", "-P", "rank=2", "-P", "k=3"],
        ["analyze", "--builtin", "tt", "-P", "i_dims=4,4", "-P", "o_dims=4,4", "-P", "rank=3",
         "--emit", "csv"],
        ["verify", "--seed", "0", "--random-formats", "2"],
        ["scale-chain", "--seed", "1", "--trials", "5", "--dims", "8,4,2"],
        ["scale-chain", "--seed", "1", "--trials", "5", "--dims", "8,4,2", "--emit", "csv"],
    ],
    ids=["analyze-json", "analyze-csv", "verify", "scale-chain-json", "scale-chain-csv"],
)
def test_out_file_holds_the_bytes_stdout_gets(capsys, tmp_path, argv):
    code, out, err = run(capsys, *argv)
    path = tmp_path / "report"
    assert run(capsys, *argv, "--out", str(path)) == (code, "", err)
    assert out and path.read_bytes() == out.encode()
