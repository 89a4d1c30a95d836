import json
import math

import pytest

from tcinit.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


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

    def test_requires_seed(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["scale-chain"])
        assert exc.value.code == 1

    def test_zero_trials_exits_2(self, capsys):
        code, out, err = run(capsys, "scale-chain", "--seed", "0", "--trials", "0")
        assert code == 2
        assert out == "" and err.startswith("error:") and "trials" in err


class TestUsage:
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
