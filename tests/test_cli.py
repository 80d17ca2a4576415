import json
import os
import signal
import subprocess
import sys
import threading
import time
from contextlib import suppress

import pytest

from synth import write_aligned_files

from sscorpus import cli
from sscorpus.cli import build_parser, main
from sscorpus.ingest import TranslationSource, read_corpus
from sscorpus.pipeline import SelectorConfig


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def make_dataset(tmp_path, n_refs=2, n_lines=4, name="dev"):
    lines = [f"the old source sentence number {i}." for i in range(n_lines)]
    refs = [[f"short version {r} of sentence {i}." for i in range(n_lines)] for r in range(n_refs)]
    (tmp_path / f"{name}.src").write_text("".join(l + "\n" for l in lines), encoding="utf-8")
    for r in range(n_refs):
        (tmp_path / f"{name}.ref.{r}").write_text(
            "".join(l + "\n" for l in refs[r]), encoding="utf-8"
        )
    return lines, refs


class TestBuild:
    def test_build_writes_corpus_and_summary(self, tmp_path, capsys):
        target, translations = write_aligned_files(tmp_path, 80)
        out = tmp_path / "corpus"
        code, stdout, _ = run(
            capsys, "build", "--target", str(target), "--translations", str(translations),
            "--out", str(out),
        )
        assert code == 0
        assert "input pairs" in stdout and "kept" in stdout
        assert (tmp_path / "corpus.complex").exists()
        assert (tmp_path / "corpus.simple").exists()
        meta = json.loads((tmp_path / "corpus.meta.json").read_text(encoding="utf-8"))
        assert meta["config"]["h_bleu"] == 15.0
        assert meta["drop_tally"]["n_input"] == 80
        corpus = read_corpus(out)
        assert meta["drop_tally"]["n_kept"] == len(corpus.pairs) > 0

    def test_impossible_threshold_keeps_nothing(self, tmp_path, capsys):
        target, translations = write_aligned_files(tmp_path, 30)
        code, stdout, _ = run(
            capsys, "build", "--target", str(target), "--translations", str(translations),
            "--out", str(tmp_path / "none"), "--h-fres", "1000",
        )
        assert code == 0
        assert json.loads((tmp_path / "none.meta.json").read_text())["stats"]["total_pairs"] == 0

    def test_missing_input_file_exits_1(self, tmp_path, capsys):
        code, _, stderr = run(
            capsys, "build", "--target", str(tmp_path / "absent.txt"),
            "--translations", str(tmp_path / "also-absent.txt"), "--out", str(tmp_path / "x"),
        )
        assert code == 1
        assert "error:" in stderr

    def test_misaligned_inputs_exit_1(self, tmp_path, capsys):
        target = tmp_path / "t.txt"
        translations = tmp_path / "x.txt"
        target.write_text("a\nb\nc\n", encoding="utf-8")
        translations.write_text("1\n2\n", encoding="utf-8")
        code, _, stderr = run(
            capsys, "build", "--target", str(target), "--translations", str(translations),
            "--out", str(tmp_path / "x"),
        )
        assert code == 1
        assert "3 lines" in stderr and "2 lines" in stderr

    def test_usage_error_exits_2(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["build", "--target"])
        assert excinfo.value.code == 2

    @pytest.mark.parametrize("flag", ["--workers", "--batch-size"])
    @pytest.mark.parametrize("value", ["0", "-4"])
    def test_counts_below_one_are_usage_errors(self, tmp_path, capsys, flag, value):
        target, translations = write_aligned_files(tmp_path, 5)
        with pytest.raises(SystemExit) as excinfo:
            main([
                "build", "--target", str(target), "--translations", str(translations),
                "--out", str(tmp_path / "x"), flag, value,
            ])
        assert excinfo.value.code == 2
        assert f"argument {flag}: must be at least 1" in capsys.readouterr().err
        assert list(tmp_path.glob("x*")) == []

    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_non_finite_h_fres_exits_1(self, tmp_path, capsys, value):
        target, translations = write_aligned_files(tmp_path, 5)
        code, _, stderr = run(
            capsys, "build", "--target", str(target), "--translations", str(translations),
            "--out", str(tmp_path / "x"), "--no-bleu-selector", "--h-fres", value,
        )
        assert code == 1
        assert "h_fres must be finite and >= 0" in stderr
        assert list(tmp_path.glob("x*")) == []

    @pytest.mark.parametrize("value", ["-1", "0", "nan", "inf"])
    def test_bad_translator_timeout_is_a_usage_error(self, tmp_path, capsys, value):
        target, _ = write_aligned_files(tmp_path, 5)
        with pytest.raises(SystemExit) as excinfo:
            main([
                "build", "--target", str(target), "--bridge", str(target),
                "--translator-cmd", "cat", "--out", str(tmp_path / "x"),
                "--translator-timeout", value,
            ])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert "argument --translator-timeout: must be a positive finite number" in err
        assert list(tmp_path.glob("x*")) == []

    def test_translator_failure_mid_run_leaves_no_file(self, tmp_path, capsys):
        target, translations = write_aligned_files(tmp_path, 200)
        argv = ["build", "--target", str(target)]
        code, _, _ = run(
            capsys, *argv, "--translations", str(translations), "--out", str(tmp_path / "x")
        )
        assert code == 0
        before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
        # Pairs are kept and written before the translator stops short, to
        # the earlier corpus's prefix and to one in directories not yet made.
        for out in (tmp_path / "x", tmp_path / "new" / "sub" / "x"):
            code, _, stderr = run(
                capsys, *argv, "--bridge", str(translations), "--batch-size", "10",
                "--translator-cmd", "sed -u 150q", "--out", str(out),
            )
            assert code == 1
            assert "translator produced 0 lines for batch 15" in stderr
            assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before

    @pytest.mark.parametrize("workers", ["1", "2"])
    def test_failed_run_does_not_wait_for_the_translator(self, tmp_path, capsys, workers):
        # The translator answers 320 lines, as many as a two-worker run reads
        # before it merges its first chunk, then keeps its output open.
        target, translations = write_aligned_files(tmp_path, 1000)
        lines = target.read_text(encoding="utf-8").splitlines()
        target.write_text("".join(f"{line}\n" for line in ["a\tb.", *lines[1:]]), encoding="utf-8")
        start = time.monotonic()
        code, _, stderr = run(
            capsys, "build", "--target", str(target), "--bridge", str(translations),
            "--translator-cmd", "sh -c 'sed -u 320q; exec sleep 30'", "--translator-timeout", "15",
            "--format", "tsv", "--no-bleu-selector", "--no-fres-selector", "--workers", workers,
            "--out", str(tmp_path / "x"),
        )
        assert code == 1
        assert "error: pair 0: sentence 'a\\tb.' has a tab" in stderr
        assert time.monotonic() - start < 5
        assert list(tmp_path.glob("x*")) == []

    def test_translator_cmd_requires_bridge(self, tmp_path, capsys):
        target, _ = write_aligned_files(tmp_path, 5)
        code, _, stderr = run(
            capsys, "build", "--target", str(target), "--translator-cmd", "cat",
            "--out", str(tmp_path / "x"),
        )
        assert code == 1
        assert stderr == "error: --translator-cmd requires --bridge\n"
        assert list(tmp_path.glob("x*")) == []

    def test_blank_translator_cmd_is_an_error(self, tmp_path, capsys):
        target, _ = write_aligned_files(tmp_path, 5)
        code, stdout, stderr = run(
            capsys, "build", "--target", str(target), "--bridge", str(tmp_path / "missing"),
            "--translator-cmd", "   ", "--out", str(tmp_path / "x"),
        )
        # Rejected before any input is opened: the missing bridge file is not reported.
        assert (code, stdout, stderr) == (1, "", "error: translator command is empty\n")
        assert list(tmp_path.glob("x*")) == []

    def test_translator_with_timeout_matches_precomputed(self, tmp_path, capsys):
        target, translations = write_aligned_files(tmp_path, 40)
        argv = ["build", "--target", str(target)]
        code, _, _ = run(
            capsys, *argv, "--translations", str(translations), "--out", str(tmp_path / "pre")
        )
        assert code == 0
        code, _, _ = run(
            capsys, *argv, "--bridge", str(translations), "--translator-cmd", "cat",
            "--translator-timeout", "2.5", "--out", str(tmp_path / "mt"),
        )
        assert code == 0
        for suffix in ("complex", "simple"):
            written = (tmp_path / f"mt.{suffix}").read_bytes()
            assert written == (tmp_path / f"pre.{suffix}").read_bytes()
        meta = json.loads((tmp_path / "mt.meta.json").read_text(encoding="utf-8"))
        assert meta["run"]["translator_timeout"] == 2.5

    def test_long_translator_timeout(self, tmp_path, capsys):
        target, translations = write_aligned_files(tmp_path, 10)
        code, _, stderr = run(
            capsys, "build", "--target", str(target), "--bridge", str(translations),
            "--translator-cmd", "cat", "--translator-timeout", "1e10", "--out", str(tmp_path / "mt"),
        )
        assert (code, stderr) == (0, "")

    def test_translations_and_translator_cmd_are_exclusive(self, tmp_path, capsys):
        target, translations = write_aligned_files(tmp_path, 5)
        code, _, stderr = run(
            capsys, "build", "--target", str(target), "--translations", str(translations),
            "--translator-cmd", "cat", "--out", str(tmp_path / "x"),
        )
        assert code == 1
        assert "exactly one" in stderr

    def test_identity_translator_drops_everything(self, tmp_path, capsys):
        target, _ = write_aligned_files(tmp_path, 25)
        code, _, _ = run(
            capsys, "build", "--target", str(target), "--bridge", str(target),
            "--translator-cmd", "cat", "--out", str(tmp_path / "idty"),
        )
        assert code == 0
        meta = json.loads((tmp_path / "idty.meta.json").read_text())
        assert meta["stats"]["total_pairs"] == 0
        assert meta["drop_tally"]["dropped_identity"] == 25

    def test_lang_flows_into_meta(self, tmp_path, capsys):
        target, translations = write_aligned_files(tmp_path, 10)
        code, _, _ = run(
            capsys, "build", "--target", str(target), "--translations", str(translations),
            "--out", str(tmp_path / "fr"), "--lang", "fr",
            "--no-bleu-selector", "--no-fres-selector",
        )
        assert code == 0
        meta = json.loads((tmp_path / "fr.meta.json").read_text())
        assert meta["lang"] == "fr"

    def test_tsv_format(self, tmp_path, capsys):
        target, translations = write_aligned_files(tmp_path, 40)
        code, _, _ = run(
            capsys, "build", "--target", str(target), "--translations", str(translations),
            "--out", str(tmp_path / "c"), "--format", "tsv",
        )
        assert code == 0
        header = (tmp_path / "c.tsv").read_text(encoding="utf-8").splitlines()[0]
        assert header == "complex\tsimple\tbleu\tfres_complex\tfres_simple\tfres_gap"


class TestEval:
    def test_hypotheses_equal_to_single_reference_scores_100(self, tmp_path, capsys):
        make_dataset(tmp_path, n_refs=1)
        hyp_path = tmp_path / "hyp.txt"
        hyp_path.write_bytes((tmp_path / "dev.ref.0").read_bytes())
        code, stdout, _ = run(
            capsys, "eval", "--dataset", str(tmp_path), "--hypotheses", str(hyp_path),
        )
        assert code == 0
        report = json.loads(stdout)
        assert report["bleu"] == pytest.approx(100.0, abs=1e-6)
        assert report["n_items"] == 4

    def test_row_source_shortcut(self, tmp_path, capsys):
        make_dataset(tmp_path, n_refs=2)
        code, stdout, _ = run(capsys, "eval", "--dataset", str(tmp_path), "--row", "source")
        assert code == 0
        report = json.loads(stdout)
        assert set(report) == {
            "sari", "f_keep", "f_add", "f_delete", "fkgl", "fres", "bleu", "n_items",
        }

    def test_misaligned_hypotheses_exit_1(self, tmp_path, capsys):
        make_dataset(tmp_path)
        hyp_path = tmp_path / "hyp.txt"
        hyp_path.write_text("just one line.\n", encoding="utf-8")
        code, _, stderr = run(
            capsys, "eval", "--dataset", str(tmp_path), "--hypotheses", str(hyp_path),
        )
        assert code == 1
        assert "1 hypotheses for 4 sources" in stderr

    def test_misaligned_hypotheses_are_counted_before_decoding(self, tmp_path, capsys):
        make_dataset(tmp_path, n_lines=2)
        hyp_path = tmp_path / "hyp.txt"
        hyp_path.write_bytes(b"one.\n\xff two.\nthree.\n")
        code, _, stderr = run(
            capsys, "eval", "--dataset", str(tmp_path), "--hypotheses", str(hyp_path),
        )
        assert code == 1
        assert "3 hypotheses for 2 sources" in stderr
        assert "invalid UTF-8" not in stderr

    def test_aligned_hypotheses_with_an_invalid_byte_exit_1(self, tmp_path, capsys):
        make_dataset(tmp_path, n_lines=2)
        hyp_path = tmp_path / "hyp.txt"
        hyp_path.write_bytes(b"one.\n\xff two.\n")
        code, _, stderr = run(
            capsys, "eval", "--dataset", str(tmp_path), "--hypotheses", str(hyp_path),
        )
        assert code == 1
        assert "invalid UTF-8 on line 2" in stderr

    def test_requires_exactly_one_input_mode(self, tmp_path, capsys):
        make_dataset(tmp_path)
        code, _, stderr = run(capsys, "eval", "--dataset", str(tmp_path))
        assert code == 1
        assert "exactly one" in stderr


class TestStats:
    def test_stats_match_hand_counts(self, tmp_path, capsys):
        (tmp_path / "c.complex").write_text("a b\na c\n", encoding="utf-8")
        (tmp_path / "c.simple").write_text("x\ny z\n", encoding="utf-8")
        code, stdout, _ = run(capsys, "stats", "--corpus", str(tmp_path / "c"))
        assert code == 0
        stats = json.loads(stdout)
        assert stats == {
            "vocab_complex": 3,
            "vocab_simple": 3,
            "avg_len_complex": 2.0,
            "avg_len_simple": 1.5,
            "total_pairs": 2,
        }


def json_error(raw: bytes) -> str:
    """The running interpreter's message for malformed JSON; its wording differs between versions."""
    try:
        json.loads(raw)
    except json.JSONDecodeError as exc:
        return exc.msg
    raise AssertionError(f"{raw!r} is valid JSON")


@pytest.mark.parametrize("command", ["stats", "subset"])
@pytest.mark.parametrize(
    "meta, message",
    [
        ({"config": {"min_len": 3}}, "unexpected keyword argument 'min_len'"),
        ([1, 2], "expected a JSON object, got list"),
        (b'{"lang": "en",}', json_error(b'{"lang": "en",}')),
        (b'{"lang": "\xff"}', "'utf-8' codec can't decode byte 0xff"),
        ({"lang": ["en"]}, "unhashable type: 'list'"),
        ({"lang": "xx"}, "unknown language profile 'xx'"),
        ({"config": {"dedup": "no"}}, "dedup must be true or false, got 'no'"),
        ({"config": {"enable_bleu": 0}}, "enable_bleu must be true or false, got 0"),
        ({"config": {"h_bleu": True}}, "h_bleu must be a number, got True"),
        ({"config": {"h_fres": "x"}}, "h_fres must be a number, got 'x'"),
        ({"config": {"h_fres": None}}, "h_fres must be a number, got None"),
    ],
)
def test_bad_meta_file_is_an_error(tmp_path, capsys, command, meta, message):
    (tmp_path / "c.complex").write_text("a b\n", encoding="utf-8")
    (tmp_path / "c.simple").write_text("x\n", encoding="utf-8")
    meta_path = tmp_path / "c.meta.json"
    meta_path.write_bytes(meta if isinstance(meta, bytes) else json.dumps(meta).encode())
    argv = ["--corpus", str(tmp_path / "c")]
    if command == "subset":
        argv += ["-n", "1", "--out", str(tmp_path / "s")]
    code, stdout, stderr = run(capsys, command, *argv)
    assert code == 1
    assert stdout == ""
    assert stderr.startswith(f"error: {meta_path}: ") and stderr.count("\n") == 1
    assert message in stderr
    assert not list(tmp_path.glob("s*"))


@pytest.mark.parametrize("command", ["stats", "subset"])
@pytest.mark.parametrize("written, requested", [("tsv", "plain"), ("plain", "tsv")])
def test_a_format_other_than_the_recorded_one_is_an_error(
    tmp_path, capsys, command, written, requested
):
    target, translations = write_aligned_files(tmp_path, 20)
    prefix = tmp_path / "c"
    code, _, _ = run(
        capsys, "build", "--target", str(target), "--translations", str(translations),
        "--out", str(prefix), "--format", written,
    )
    assert code == 0
    # Empty files of the requested format do not stand in for the corpus.
    for suffix in {"plain": ("complex", "simple"), "tsv": ("tsv",)}[requested]:
        (tmp_path / f"c.{suffix}").write_bytes(b"")
    before = {path.name: path.read_bytes() for path in tmp_path.iterdir()}
    argv = [command, "--corpus", str(prefix), "--format", requested]
    if command == "subset":
        argv += ["-n", "1", "--out", str(tmp_path / "s")]
    code, stdout, stderr = run(capsys, *argv)
    assert (code, stdout) == (1, "")
    message = f"the corpus format is {written!r}, not {requested!r}"
    assert stderr == f"error: {prefix}.meta.json: {message}\n"
    assert {path.name: path.read_bytes() for path in tmp_path.iterdir()} == before


@pytest.mark.parametrize("command", ["stats", "subset"])
def test_a_meta_file_without_a_format_is_read_in_the_requested_one(tmp_path, capsys, command):
    target, translations = write_aligned_files(tmp_path, 20)
    prefix = tmp_path / "c"
    run(
        capsys, "build", "--target", str(target), "--translations", str(translations),
        "--out", str(prefix), "--format", "tsv", "--no-bleu-selector", "--no-fres-selector",
    )
    meta_path = tmp_path / "c.meta.json"
    meta = json.loads(meta_path.read_text(encoding="utf-8"))
    del meta["format"]
    meta_path.write_text(json.dumps(meta), encoding="utf-8")
    argv = [command, "--corpus", str(prefix), "--format", "tsv"]
    if command == "subset":
        argv += ["-n", "5", "--out", str(tmp_path / "s")]
    code, stdout, _ = run(capsys, *argv)
    assert code == 0
    if command == "subset":
        assert stdout == "kept 5 of 20 pairs\n"
    else:
        assert json.loads(stdout)["total_pairs"] == 20


# (signal, --workers, whether the whole process group gets the signal, as from a terminal,
# whether pytest ignores SIGINT, as under `trap '' INT`)
_INTERRUPTS = [
    *((sig, workers, False, False) for sig in (signal.SIGTERM, signal.SIGHUP, signal.SIGINT)
      for workers in ("1", "2")),
    (signal.SIGINT, "2", True, False),
    (signal.SIGINT, "1", False, True),
]


def _default_sigint() -> None:
    signal.signal(signal.SIGINT, signal.SIG_DFL)


@pytest.mark.parametrize(
    ("sig", "workers", "group", "ignored"), _INTERRUPTS,
    ids=[f"{sig.name}-workers{workers}{'-group' * group}{'-ignored' * ignored}"
         for sig, workers, group, ignored in _INTERRUPTS],
)
def test_a_signal_ends_the_run_like_ctrl_c(tmp_path, child_env, sig, workers, group, ignored):
    target, translations = write_aligned_files(tmp_path, 2000)
    before = sorted(tmp_path.iterdir())
    out = tmp_path / "out" / "c"
    previous = signal.signal(signal.SIGINT, signal.SIG_IGN) if ignored else None
    try:
        # The translator answers 640 lines, then keeps its output open: the run waits on it
        # with more than one write buffer of pairs merged, with one worker or two. The CLI
        # keeps a signal ignored at its start ignored, so it starts with SIGINT's default
        # action, as from a shell, whatever pytest's is.
        proc = subprocess.Popen(
            [
                sys.executable, "-m", "sscorpus.cli", "build", "--target", str(target),
                "--bridge", str(translations),
                "--translator-cmd", "sh -c 'sed -u 640q; exec sleep 30'",
                "--no-bleu-selector", "--no-fres-selector", "--workers", workers,
                "--out", str(out),
            ],
            env=child_env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
            start_new_session=True, preexec_fn=_default_sigint,
        )
    finally:
        if ignored:
            signal.signal(signal.SIGINT, previous)
    try:
        # Not empty once the first chunk is merged and written.
        written = out.parent / f"c.complex.{proc.pid}.tmp"
        deadline = time.monotonic() + 60
        while not (written.exists() and written.stat().st_size):
            assert proc.poll() is None and time.monotonic() < deadline
            time.sleep(0.01)
        if group:
            os.killpg(proc.pid, sig)
        else:
            proc.send_signal(sig)
        # Returns only once no process holds the pipes: no worker and no translator is left.
        _, stderr = proc.communicate(timeout=20)
    finally:
        with suppress(ProcessLookupError):
            os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
    assert proc.returncode == 128 + sig
    assert [line for line in stderr.splitlines() if line.startswith("error:")] == [
        f"error: interrupted by {sig.name}"
    ]
    assert "Traceback" not in stderr
    assert sorted(tmp_path.iterdir()) == before


def test_workers_exit_when_the_main_process_is_killed(tmp_path, child_env):
    target, translations = write_aligned_files(tmp_path, 2000)
    out = tmp_path / "out" / "c"
    # The translator answers 640 lines, then reads to EOF: it ends with the main process, so
    # only the workers (and the resource tracker they hold open) can keep the group alive.
    proc = subprocess.Popen(
        [
            sys.executable, "-m", "sscorpus.cli", "build", "--target", str(target),
            "--bridge", str(translations), "--translator-cmd",
            "sh -c 'sed -u 640q; exec cat >/dev/null'", "--translator-timeout", "60",
            "--no-bleu-selector", "--no-fres-selector", "--workers", "2", "--out", str(out),
        ],
        env=child_env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
        start_new_session=True,
    )
    try:
        written = out.parent / f"c.complex.{proc.pid}.tmp"
        deadline = time.monotonic() + 60
        while not (written.exists() and written.stat().st_size):
            assert proc.poll() is None and time.monotonic() < deadline
            time.sleep(0.01)
        proc.kill()  # as the OOM killer does: no handler runs
        proc.wait()
        deadline = time.monotonic() + 20
        with pytest.raises(ProcessLookupError):
            while time.monotonic() < deadline:
                os.killpg(proc.pid, 0)
                time.sleep(0.05)
    finally:
        with suppress(ProcessLookupError):
            os.killpg(proc.pid, signal.SIGKILL)


def test_signal_handlers_last_as_long_as_main(tmp_path, capsys, monkeypatch):
    target, translations = write_aligned_files(tmp_path, 20)
    argv = ["build", "--target", str(target), "--translations", str(translations)]

    def handlers():
        return signal.getsignal(signal.SIGTERM), signal.getsignal(signal.SIGHUP)

    during = []  # the handlers while a command runs
    monkeypatch.setattr(cli, "_print_summary", lambda tally: during.append(handlers()))
    previous = signal.signal(signal.SIGHUP, signal.SIG_IGN)  # as under nohup
    try:
        assert run(capsys, *argv, "--out", str(tmp_path / "a"))[0] == 0
        after = handlers()
    finally:
        signal.signal(signal.SIGHUP, previous)
    assert during == [(cli._interrupt, signal.SIG_IGN)]
    assert after == (signal.SIG_DFL, signal.SIG_IGN)
    # Only the main thread may set a handler; another runs the command without one.
    codes = []
    thread = threading.Thread(target=lambda: codes.append(main([*argv, "--out", str(tmp_path / "b")])))
    thread.start()
    thread.join()
    assert codes == [0]
    assert during[1] == (signal.SIG_DFL, signal.SIG_DFL)


def test_import_loads_neither_multiprocessing_nor_hashlib(child_env):
    # A one-worker run pays for neither: the pool and the dedup digest import them late,
    # and a run without a translator pays for none of the bridge's process and selector modules.
    late = "{'multiprocessing', 'hashlib', 'subprocess', 'selectors', 'shlex'}"
    script = f"import sys, sscorpus.cli; print({late} & set(sys.modules))"
    result = subprocess.run(
        [sys.executable, "-c", script], env=child_env, capture_output=True, text=True, check=True
    )
    assert result.stdout == "set()\n"


class TestAblate:
    def test_writes_four_variants_with_subset_laws(self, tmp_path, capsys):
        target, translations = write_aligned_files(tmp_path, 120)
        code, stdout, _ = run(
            capsys, "ablate", "--target", str(target), "--translations", str(translations),
            "--out", str(tmp_path / "ab"),
        )
        assert code == 0
        kept = json.loads(stdout)["kept"]
        assert set(kept) == {"pseudo", "no_bleu", "no_fres", "full"}
        assert kept["full"] <= kept["no_bleu"] <= kept["pseudo"] == 120
        assert kept["full"] <= kept["no_fres"] <= kept["pseudo"]
        for name in kept:
            meta = json.loads((tmp_path / f"ab.{name}.meta.json").read_text())
            assert meta["stats"]["total_pairs"] == kept[name]


    def test_failed_variant_leaves_no_variant_behind(self, tmp_path, capsys):
        target, translations = write_aligned_files(tmp_path, 40)
        argv = ["ablate", "--target", str(target), "--translations", str(translations),
                "--out", str(tmp_path / "ab")]

        def snapshot():
            return {p.name: p.is_file() and p.read_bytes() for p in tmp_path.iterdir()}

        # The last-but-one variant cannot be renamed into place.
        (tmp_path / "ab.no_fres.simple").mkdir()
        before = snapshot()
        code, _, stderr = run(capsys, *argv)
        assert code == 1
        assert "ab.no_fres.simple" in stderr
        assert snapshot() == before

        # The same, over an earlier ablate at the same prefix from other input.
        (tmp_path / "ab.no_fres.simple").rmdir()
        earlier = tmp_path / "earlier"
        earlier.mkdir()
        old_target, old_translations = write_aligned_files(earlier, 30, seed=11)
        code, _, _ = run(
            capsys, "ablate", "--target", str(old_target), "--translations",
            str(old_translations), "--out", str(tmp_path / "ab"),
        )
        assert code == 0
        (tmp_path / "ab.no_fres.simple").unlink()
        (tmp_path / "ab.no_fres.simple").mkdir()
        before = snapshot()
        assert len(before) == 15  # inputs, earlier/, 4 variants x 3 files
        code, _, _ = run(capsys, *argv)
        assert code == 1
        assert snapshot() == before

    def test_takes_the_flags_and_defaults_of_build(self):
        every_flag = [
            "--lang", "fr", "--h-bleu", "20", "--h-fres", "5", "--no-bleu-selector",
            "--no-fres-selector", "--keep-identity", "--dedup", "--target", "t", "--bridge", "b",
            "--translations", "tr", "--translator-cmd", "cat", "--batch-size", "8",
            "--translator-timeout", "2.5", "--workers", "3", "--out", "o", "--format", "tsv",
        ]
        parsed = []
        for argv in (every_flag, ["--target", "t", "--out", "o"]):
            build = vars(build_parser().parse_args(["build", *argv]))
            ablate = vars(build_parser().parse_args(["ablate", *argv]))
            assert (build.pop("command"), ablate.pop("command")) == ("build", "ablate")
            assert build == ablate
            parsed.append(build)
        every, required = parsed
        # Every flag was set away from its default, so every default was compared too.
        assert [key for key in every if every[key] == required[key]] == ["target", "out"]

    def test_defaults_are_the_apis(self):
        args = build_parser().parse_args(["build", "--target", "t", "--out", "o"])
        assert (args.h_bleu, args.h_fres) == (SelectorConfig().h_bleu, SelectorConfig().h_fres)
        source = TranslationSource("cat")
        assert (args.batch_size, args.translator_timeout) == (source.batch_size, source.timeout)


class TestSubset:
    def test_subset_is_deterministic(self, tmp_path, capsys):
        target, translations = write_aligned_files(tmp_path, 60)
        run(
            capsys, "build", "--target", str(target), "--translations", str(translations),
            "--out", str(tmp_path / "full"), "--no-bleu-selector", "--no-fres-selector",
        )
        for out in ("s1", "s2"):
            code, _, _ = run(
                capsys, "subset", "--corpus", str(tmp_path / "full"), "-n", "15",
                "--seed", "7", "--out", str(tmp_path / out),
            )
            assert code == 0
        assert (tmp_path / "s1.complex").read_bytes() == (tmp_path / "s2.complex").read_bytes()
        assert (tmp_path / "s1.simple").read_bytes() == (tmp_path / "s2.simple").read_bytes()

    def test_negative_count_is_a_usage_error(self, tmp_path, capsys):
        target, translations = write_aligned_files(tmp_path, 10)
        run(
            capsys, "build", "--target", str(target), "--translations", str(translations),
            "--out", str(tmp_path / "full"), "--no-bleu-selector", "--no-fres-selector",
        )
        with pytest.raises(SystemExit) as excinfo:
            main(["subset", "--corpus", str(tmp_path / "full"), "-n", "-1", "--out", "s"])
        assert excinfo.value.code == 2
        assert "argument -n: must be at least 0" in capsys.readouterr().err
        code, stdout, _ = run(
            capsys, "subset", "--corpus", str(tmp_path / "full"), "-n", "0",
            "--out", str(tmp_path / "s"),
        )
        assert code == 0
        assert stdout == "kept 0 of 10 pairs\n"

    def test_oversample_exits_1(self, tmp_path, capsys):
        target, translations = write_aligned_files(tmp_path, 10)
        run(
            capsys, "build", "--target", str(target), "--translations", str(translations),
            "--out", str(tmp_path / "full"), "--no-bleu-selector", "--no-fres-selector",
        )
        code, _, stderr = run(
            capsys, "subset", "--corpus", str(tmp_path / "full"), "-n", "99",
            "--seed", "1", "--out", str(tmp_path / "s"),
        )
        assert code == 1
        assert "cannot sample" in stderr
