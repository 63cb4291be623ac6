"""A large reference-metric batch is split over forked children: every
report is the serial run's, a child that fails or dies leaves its slice to
the parent, no child or pipe outlives the batch, and runs that must not
fork never do."""

from __future__ import annotations

import errno
import logging
import os
import shlex
import signal
import sys
import tempfile
import threading
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import gecmetric.gleu
from gecmetric import _config, cli
from test_cli import _hyp_args, _sweep_args, corpus, model_path  # noqa: F401
from test_external_checker import checker_script, command  # noqa: F401

pytestmark = pytest.mark.skipif(sys.platform != "linux", reason="batches split on Linux only")

WORDS = ("the", "cat", "sat", "a", "mat", "dog", "ran", "on", ".")


def _run(capsys, caplog, argv, cpus):
    """(exit code, stdout, log messages) of one run that sees ``cpus``
    usable CPUs and splits any batch of two items or more, and how many
    children it forked; no thread but this one is alive at any fork."""
    forks = []
    fork = os.fork

    def counted():
        assert threading.active_count() == 1
        forks.append(1)
        return fork()

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cli, "MIN_SPLIT", 1)
        mp.setattr(_config, "usable_cpus", lambda: cpus)
        mp.setattr(os, "fork", counted)
        caplog.clear()
        with caplog.at_level(logging.INFO, logger="gecmetric"):
            code = cli.main(argv)
    out = capsys.readouterr().out
    return (code, out, [r.getMessage() for r in caplog.records]), len(forks)


def _no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


sentences = st.lists(st.sampled_from(WORDS), min_size=1, max_size=6)


@st.composite
def _corpora(draw):
    """Source, two references, gold edits of two annotators and three
    systems that share some hypotheses, for 2 to 6 sentences."""
    n = draw(st.integers(2, 6))
    source = [draw(sentences) for _ in range(n)]
    refs = [[draw(sentences) for _ in range(n)] for _ in range(2)]
    pool = st.sampled_from(["source", "ref", "own"])
    systems = []
    for _ in range(3):
        hyps = []
        for i in range(n):
            kind = draw(pool)
            hyps.append(source[i] if kind == "source" else refs[0][i] if kind == "ref"
                        else draw(sentences))
        systems.append(hyps)
    m2 = []
    for tokens in source:
        m2.append("S " + " ".join(tokens))
        for annotator in (0, 1):
            j = draw(st.integers(-1, len(tokens) - 1))
            if j < 0:
                m2.append(f"A -1 -1|||noop|||-NONE-|||REQUIRED|||-NONE-|||{annotator}")
            else:
                word = draw(st.sampled_from(WORDS))
                m2.append(f"A {j} {j + 1}|||X|||{word}|||REQUIRED|||-NONE-|||{annotator}")
        m2.append("")
    return source, refs, systems, "\n".join(m2)


def _lines(rows):
    return "".join(" ".join(row) + "\n" for row in rows)


def _commands(d: Path) -> list[list[str]]:
    refs = ["--source", str(d / "source.txt"), "--ref", str(d / "ref0.txt"),
            "--ref", str(d / "ref1.txt")]
    hyps = [arg for k in range(3) for arg in ("--hyp", f"s{k}={d / f's{k}.txt'}")]
    both = refs + hyps + ["--wordlist", str(d / "words.txt"), "--human", str(d / "human.tsv"),
                          "--fluency-metric", "errorcount", "--seed", "7"]
    return [
        ["score", "--metric", "gleu", "--seed", "5"] + refs + hyps,
        ["score", "--metric", "gleu", "--gleu-mode", "mean-over-all", "--mode", "corpus"]
        + refs + hyps,
        ["score", "--metric", "m2", "--mode", "corpus", "--m2", str(d / "gold.m2")] + hyps,
        ["score", "--metric", "imeasure", "--mode", "corpus"] + refs + hyps,
        *(["sweep", "--gaming", "--reference-metric", metric] + both
          for metric in ("gleu", "imeasure")),
        *(["ablate", "--trials", "3", "--sizes", "1", "--reference-metric", metric] + both
          for metric in ("gleu", "imeasure")),
    ]


@settings(max_examples=15, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=_corpora(), cpus=st.sampled_from([2, 3, 4]))
def test_split_batches_give_the_serial_reports(capsys, caplog, data, cpus):
    source, refs, systems, m2 = data
    with tempfile.TemporaryDirectory() as tmp:
        d = Path(tmp)
        (d / "source.txt").write_text(_lines(source), encoding="utf-8")
        for j, ref in enumerate(refs):
            (d / f"ref{j}.txt").write_text(_lines(ref), encoding="utf-8")
        for k, hyps in enumerate(systems):
            (d / f"s{k}.txt").write_text(_lines(hyps), encoding="utf-8")
        (d / "gold.m2").write_text(m2, encoding="utf-8")
        (d / "words.txt").write_text("\n".join(WORDS) + "\n", encoding="utf-8")
        (d / "human.tsv").write_text("s0\t1.0\ns1\t2.5\ns2\t2.0\n", encoding="utf-8")
        for argv in _commands(d):
            serial, none = _run(capsys, caplog, argv, 1)
            split, forks = _run(capsys, caplog, argv, cpus)
            assert split == serial, argv
            assert none == 0 and forks >= 1, argv
    _no_child_left()


def _gleu_score(corpus):
    return ["score", "--metric", "gleu", "--source", str(corpus / "source.txt"),
            "--ref", str(corpus / "ref1.txt"), "--ref", str(corpus / "ref2.txt"),
            ] + _hyp_args(corpus)


def test_a_child_killed_mid_slice_leaves_its_slice_to_the_parent(
    corpus, capsys, caplog, monkeypatch
):
    parent, stats = os.getpid(), gecmetric.gleu.gleu_stats_many

    def killed(*args, **kwargs):
        if os.getpid() != parent:
            os.kill(os.getpid(), signal.SIGKILL)
        return stats(*args, **kwargs)

    serial, _ = _run(capsys, caplog, _gleu_score(corpus), 1)
    monkeypatch.setattr(gecmetric.gleu, "gleu_stats_many", killed)
    split, forks = _run(capsys, caplog, _gleu_score(corpus), 3)
    assert serial[0] == 0 and forks == 2
    assert split == serial
    _no_child_left()


def test_a_fork_that_fails_leaves_its_slice_to_the_parent(corpus, capsys, caplog, monkeypatch):
    serial, _ = _run(capsys, caplog, _gleu_score(corpus), 1)

    def fails():
        raise OSError(errno.EAGAIN, os.strerror(errno.EAGAIN))

    monkeypatch.setattr(os, "fork", fails)
    fds = sorted(os.listdir("/proc/self/fd"))
    split, forks = _run(capsys, caplog, _gleu_score(corpus), 3)
    assert forks == 2
    assert split == serial
    assert sorted(os.listdir("/proc/self/fd")) == fds


@pytest.mark.parametrize("metric, message", [
    ("gleu", "sentence 2 has no references"),
    ("imeasure", "at least one reference is required"),
])
def test_a_sentence_without_references_in_a_child_fails_as_in_one_process(
    corpus, capsys, caplog, monkeypatch, metric, message
):
    """The last of the three sentences has an empty reference row, so the
    last child's slice fails; the run exits 2 with the serial run's one
    message."""
    rows = cli.read_reference_files
    monkeypatch.setattr(cli, "read_reference_files", lambda paths: (*rows(paths)[:-1], ()))
    argv = _gleu_score(corpus)
    argv[2] = metric
    serial, _ = _run(capsys, caplog, argv, 1)
    split, forks = _run(capsys, caplog, argv, 3)
    assert forks == 2
    assert split == serial == (2, "", [message])
    _no_child_left()


def test_an_interrupt_reaps_every_child_and_closes_every_pipe(
    corpus, capsys, caplog, monkeypatch
):
    parent, stats = os.getpid(), gecmetric.gleu.gleu_stats_many

    def interrupted(*args, **kwargs):
        if os.getpid() == parent:
            raise KeyboardInterrupt
        return stats(*args, **kwargs)

    monkeypatch.setattr(gecmetric.gleu, "gleu_stats_many", interrupted)
    fds = sorted(os.listdir("/proc/self/fd"))
    with pytest.raises(KeyboardInterrupt):
        _run(capsys, caplog, _gleu_score(corpus), 3)
    assert sorted(os.listdir("/proc/self/fd")) == fds
    _no_child_left()


def test_fluency_batches_never_fork_and_a_checker_ends_before_the_reference_batch(
    corpus, capsys, caplog, model_path, checker_script  # noqa: F811
):
    """errorcount may own checker pipes and lfm trains one LM per batch,
    so their batches stay in one process. A run's checker copies and their
    reader threads end with its one errorcount batch, so the reference
    batch after it splits as in a run without a checker."""
    words = ["--wordlist", str(corpus / "words.txt")]
    checker = ["--checker", shlex.join(command(checker_script, "flag"))]
    runs = [
        ["score", "--metric", "errorcount"] + words + checker + _hyp_args(corpus),
        ["score", "--metric", "lfm", "--model", str(model_path),
         "--lm-corpus", str(corpus / "source.txt")] + words + _hyp_args(corpus),
    ]
    for argv in runs:
        result, forks = _run(capsys, caplog, argv, 4)
        assert result[0] == 0 and forks == 0, argv
    for argv in (["sweep", "--gaming"], ["ablate", "--trials", "3", "--sizes", "1"]):
        for extra in ([], checker):
            serial, _ = _run(capsys, caplog, argv + extra + _sweep_args(corpus), 1)
            split, forks = _run(capsys, caplog, argv + extra + _sweep_args(corpus), 4)
            assert split == serial and serial[0] == 0 and forks >= 1, argv + extra
    _no_child_left()
