"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_info(capsys):
    code, out = run_cli(capsys, "info")
    assert code == 0
    assert "RISC-V VEC" in out and "SX-Aurora" in out


def test_table1_and_2_static(capsys):
    code, out = run_cli(capsys, "table", "1")
    assert code == 0 and "-mepi" in out
    code, out = run_cli(capsys, "table", "2")
    assert code == 0 and "Frequency" in out


def test_table3_quick_mesh(capsys):
    code, out = run_cli(capsys, "table", "3", "--mesh", "quick")
    assert code == 0
    assert "% of total cycles" in out


def test_figure11(capsys):
    code, out = run_cli(capsys, "figure", "11", "--mesh", "quick")
    assert code == 0
    assert "vanilla" in out and "vec1" in out


def test_sweep_barchart(capsys):
    code, out = run_cli(capsys, "sweep", "--mesh", "quick")
    assert code == 0
    assert "#" in out and "VECTOR_SIZE = 240" in out


def test_remarks(capsys):
    code, out = run_cli(capsys, "remarks", "--opt", "vanilla", "--vs", "64")
    assert code == 0
    assert "blocked" in out and "vectorized" in out


def test_advise(capsys):
    code, out = run_cli(capsys, "advise", "--opt", "vanilla", "--vs", "240")
    assert code == 0
    assert "phase 2" in out
    assert "compile time" in out


def test_codesign_loop(capsys):
    code, out = run_cli(capsys, "codesign", "--vs", "64")
    assert code == 0
    assert "vanilla" in out and "vec1" in out and "final:" in out


def test_trace_export(tmp_path, capsys):
    out_file = tmp_path / "t.prv"
    code, out = run_cli(capsys, "trace", "--opt", "vec1", "--vs", "64",
                        "-o", str(out_file))
    assert code == 0
    assert out_file.exists()
    assert "trace written" in out
    from repro.trace import paraver

    trace = paraver.load(out_file)
    assert trace.blocks


def test_trace_preset_and_chrome_export(tmp_path, capsys):
    prv = tmp_path / "t.prv"
    chrome_json = tmp_path / "t.json"
    code, out = run_cli(capsys, "trace", "--preset", "tiny",
                        "-o", str(prv), "--out", str(chrome_json))
    assert code == 0
    assert "phase timeline" in out and "granted-vl histogram" in out
    # paraver companions land next to the .prv
    assert (tmp_path / "t.pcf").exists() and (tmp_path / "t.row").exists()
    from repro.obs import chrome
    from repro.trace import paraver

    events = chrome.load(chrome_json)
    assert len(set(chrome.phase_span_names(events))) == 8
    assert paraver.load(prv).blocks


def test_trace_chrome_export_is_deterministic(tmp_path, capsys):
    paths = [tmp_path / "a.json", tmp_path / "b.json"]
    for p in paths:
        code, _ = run_cli(capsys, "trace", "--preset", "tiny",
                          "-o", str(p.with_suffix(".prv")), "--out", str(p))
        assert code == 0
    assert paths[0].read_bytes() == paths[1].read_bytes()


def test_parser_rejects_unknown_command():
    with pytest.raises(SystemExit):
        build_parser().parse_args(["frobnicate"])


def test_parser_rejects_bad_table():
    with pytest.raises(SystemExit):
        build_parser().parse_args(["table", "9"])


def test_parser_rejects_unknown_backend_listing_registry(capsys):
    # choices come from the live registry: the error names the known
    # backends instead of surfacing a KeyError deep in the stack.
    with pytest.raises(SystemExit):
        build_parser().parse_args(["sweep", "--backend", "fortran"])
    err = capsys.readouterr().err
    assert "interpreter" in err and "numpy" in err


def test_parser_accepts_service_commands():
    args = build_parser().parse_args(["serve", "--state-dir", "x"])
    assert args.command == "serve"
    args = build_parser().parse_args(["submit", "--ladder", "--wait"])
    assert args.command == "submit" and args.ladder and args.wait
    args = build_parser().parse_args(["jobs", "--health"])
    assert args.command == "jobs" and args.health
    args = build_parser().parse_args(["chaos", "--service-faults"])
    assert args.service_faults


def test_parser_accepts_telemetry_commands():
    args = build_parser().parse_args(["top", "--once", "--json"])
    assert args.command == "top" and args.once and args.json
    assert args.interval == 2.0
    args = build_parser().parse_args(["submit", "--trace"])
    assert args.trace
    args = build_parser().parse_args(
        ["trace", "--job", "j00001", "--state-dir", "svc"])
    assert args.job == "j00001" and args.state_dir == "svc"


def test_trace_job_without_export_exits_1(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    code = main(["trace", "--job", "j99999", "--state-dir", str(tmp_path)])
    assert code == 1
    assert "no trace for job j99999" in capsys.readouterr().err


def test_trace_job_renders_exported_timeline(tmp_path, capsys):
    from repro.experiments.config import RunConfig
    from repro.service.core import SweepService

    svc = SweepService(str(tmp_path / "svc"))
    cfg = RunConfig(opt="vanilla", vector_size=16, mesh_dims=(4, 4, 4))
    resp = svc.submit([cfg], tenant="alice", trace_id="cafe0123cafe0123")
    svc.process_next()
    svc.close()
    code, out = run_cli(capsys, "trace", "--job", resp["job_id"],
                        "--state-dir", str(tmp_path / "svc"))
    assert code == 0
    assert "trace cafe0123cafe0123" in out
    # the single cross-process timeline, stage-ordered.
    for span in ("client-submit", "queue-wait", "worker-execute",
                 "store-write"):
        assert span in out
    assert out.index("client-submit") < out.index("queue-wait") \
        < out.index("worker-execute") < out.index("store-write")
    assert "all spans share trace id cafe0123cafe0123" in out


def test_roofline_command(capsys):
    code, out = run_cli(capsys, "roofline", "--opt", "vec1", "--vs", "64")
    assert code == 0
    assert "ridge" in out and "phase" in out


def test_report_command_to_file(tmp_path, capsys):
    out_file = tmp_path / "report.txt"
    code, out = run_cli(capsys, "report", "--mesh", "quick",
                        "-o", str(out_file))
    assert code == 0
    text = out_file.read_text()
    assert "HEADLINE" in text and "Table 5" in text


def test_machine_choices_include_extensions(capsys):
    code, out = run_cli(capsys, "remarks", "--machine", "a64fx",
                        "--opt", "vanilla", "--vs", "64")
    assert code == 0


def test_jobs_flag_output_identical(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    code, out_parallel = run_cli(capsys, "figure", "2", "--mesh", "quick",
                                 "-j", "2")
    assert code == 0
    code, out_serial = run_cli(capsys, "figure", "2", "--mesh", "quick",
                               "-j", "1")
    assert code == 0
    assert out_parallel == out_serial


def test_bench_smoke_writes_json_report(tmp_path, capsys, monkeypatch):
    import json

    monkeypatch.chdir(tmp_path)
    code, out = run_cli(capsys, "bench", "--mesh", "quick",
                        "--profile", "smoke", "-j", "2",
                        "-o", "bench.json")
    assert code == 0
    assert "speedup" in out and "warm recall" in out
    payload = json.loads((tmp_path / "bench.json").read_text())
    assert payload["configs"] == 4 and payload["jobs"] == 2
    assert payload["cold_simulated"] == 4 and payload["warm_cache_hits"] == 4
    assert payload["serial_s"] > 0 and payload["parallel_s"] > 0
    assert len(payload["phase_cycles"]) == 4
    for key, phases in payload["phase_cycles"].items():
        last = 13 if key.endswith("-solve") else 9
        assert set(phases) == {str(p) for p in range(1, last)}


def test_bench_appends_history_jsonl(tmp_path, capsys, monkeypatch):
    import json

    monkeypatch.chdir(tmp_path)
    for _ in range(2):
        code, out = run_cli(capsys, "bench", "--mesh", "tiny",
                            "--profile", "smoke", "-o", "bench.json")
        assert code == 0
        assert "history appended to" in out
    lines = (tmp_path / "BENCH_history.jsonl").read_text().splitlines()
    assert len(lines) == 2  # one line per run, appended not overwritten
    for line in lines:
        entry = json.loads(line)
        assert entry["mesh"] == [4, 4, 4] and entry["profile"] == "smoke"
        assert entry["timestamp"] and entry["host"] and entry["machine"]
        assert entry["serial_s"] > 0 and entry["speedup"] is not None


def test_bench_baseline_gate(tmp_path, capsys, monkeypatch):
    import json

    monkeypatch.chdir(tmp_path)
    code, _ = run_cli(capsys, "bench", "--mesh", "tiny",
                      "--profile", "smoke", "-o", "base.json")
    assert code == 0

    # fresh report vs itself: within tolerance, exit 0.
    code, out = run_cli(capsys, "bench", "--mesh", "tiny",
                        "--profile", "smoke", "-o", "cur.json",
                        "--baseline", "base.json")
    assert code == 0 and "gate:" in out

    # inject a >=10% per-phase regression into the baseline: exit 1.
    doc = json.loads((tmp_path / "base.json").read_text())
    key = next(iter(doc["phase_cycles"]))
    doc["phase_cycles"][key]["6"] *= 1.15
    (tmp_path / "regressed.json").write_text(json.dumps(doc))
    code, out = run_cli(capsys, "bench", "--mesh", "tiny",
                        "--profile", "smoke", "-o", "cur2.json",
                        "--baseline", "regressed.json")
    assert code == 1
    assert "FAIL" in out and "phase 6" in out

    # a wider threshold lets the same drift through.
    code, out = run_cli(capsys, "bench", "--mesh", "tiny",
                        "--profile", "smoke", "-o", "cur3.json",
                        "--baseline", "regressed.json",
                        "--threshold", "0.25")
    assert code == 0 and "gate:" in out


def test_bench_baseline_unusable_exits_2(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    code, _ = run_cli(capsys, "bench", "--mesh", "tiny",
                      "--profile", "smoke", "-o", "cur.json",
                      "--baseline", "missing.json")
    assert code == 2


def test_cli_survives_corrupted_cache(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    code, _ = run_cli(capsys, "table", "3", "--mesh", "quick")
    assert code == 0
    torn = list((tmp_path / ".repro_cache").rglob("*.json"))
    assert torn
    for f in torn:
        f.write_text('{"truncated')
    code, out = run_cli(capsys, "table", "3", "--mesh", "quick")
    assert code == 0
    assert "% of total cycles" in out
