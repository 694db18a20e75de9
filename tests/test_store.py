"""The checked file container behind checkpoints and lexicon caches."""

import json
import mmap
import os
import sys
import threading
import time
import zlib
from functools import partial

import numpy as np
import pytest

from pairsim import store, threads
from pairsim.rng import stream

MAGIC = b"TEST"


def payload(name, size):
    return stream(2, "store", name).bytes(size)


def write(path, sections, header=None, version=1):
    store.write(path, MAGIC, version, header or {"kind": "test"}, sections)
    return path.read_bytes()


def test_a_container_round_trips_its_header_and_sections(tmp_path):
    path = tmp_path / "c.bin"
    sections = [("a", payload("a", 100)), ("b", payload("b", 0)), ("c", payload("c", 9000))]
    raw = write(path, sections, {"kind": "test", "n": [1, 2]}, version=7)
    c = store.load(path, MAGIC, (6, 7))
    assert (c.version, c.header) == (7, {"kind": "test", "n": [1, 2]})
    assert c.start % store.ALIGN == 0 and raw[c.start:] == b"".join(d for _, d in sections)
    table = json.loads(raw[16:c.start])["sections"]
    assert [(s["name"], s["bytes"]) for s in table] == [("a", 100), ("b", 0), ("c", 9000)]
    c.expect([("a", 100), ("b", None), ("c", 9000)])
    for name, data in sections:
        assert bytes(c.section(name)) == data
    assert c.section("a").readonly
    assert not store.load(path, MAGIC, (7,), copy=True).section("a").readonly


@pytest.mark.parametrize("edit, message", [
    (lambda raw: b"XXXX" + raw[4:], "not a TEST file (bad magic)"),
    (lambda raw: raw[:4] + (9).to_bytes(4, "little") + raw[8:],
     "format version 9, this build reads 1"),
    (lambda raw: raw[:40], "truncated metadata block"),
    (lambda raw: raw[:16] + b"[" + raw[17:], "corrupt metadata"),
    (lambda raw: raw.replace(b'"crc32":', b'"crc33":', 1), "malformed metadata"),
    (lambda raw: raw.replace(b'"name":"b"', b'"name":"a"', 1), "malformed section table"),
], ids=["magic", "version", "truncated-header", "json", "table-key", "table-names"])
def test_a_damaged_head_raises_format_error(tmp_path, edit, message):
    path = tmp_path / "c.bin"
    raw = write(path, [("a", payload("a", 100)), ("b", payload("b", 50))])
    path.write_bytes(edit(raw))
    with pytest.raises(store.FormatError, match=message.replace("(", r"\(").replace(")", r"\)")):
        store.load(path, MAGIC, (1,))


@pytest.mark.parametrize("edit, layout, message", [
    (lambda raw: raw[:-1], [("a", 100), ("b", 50)], "the sections end at byte"),
    (lambda raw: raw + b"\0", [("a", 100), ("b", 50)], "the sections end at byte"),
    (lambda raw: raw, [("a", 100), ("b", 51)], "section table"),
    (lambda raw: raw, [("a", 100)], "section table"),
    (lambda raw: raw, [("b", 50), ("a", 100)], "section table"),
], ids=["truncated", "trailing", "length", "missing", "order"])
def test_sections_other_than_expected_raise_format_error(tmp_path, edit, layout, message):
    path = tmp_path / "c.bin"
    path.write_bytes(edit(write(path, [("a", payload("a", 100)), ("b", payload("b", 50))])))
    with pytest.raises(store.FormatError, match=message):
        store.load(path, MAGIC, (1,)).expect(layout)


@pytest.mark.parametrize("n1, n2", [(0, 0), (5, 0), (0, 5), (1, 1), (7, 4096), (4096, 9999),
                                    (3, 1 << 20)])
def test_crc32_combine_equals_the_crc32_of_the_whole(n1, n2):
    a, b = payload("a", n1), payload("b", n2)
    assert store.crc32_combine(zlib.crc32(a), zlib.crc32(b), n2) == zlib.crc32(a + b)


def test_a_damaged_section_raises_only_when_asked_for(tmp_path):
    path = tmp_path / "c.bin"
    raw = bytearray(write(path, [("a", payload("a", 100)), ("b", payload("b", 50))]))
    raw[-1] ^= 0x80
    path.write_bytes(raw)
    c = store.load(path, MAGIC, (1,))
    assert bytes(c.section("a")) == payload("a", 100)
    for _ in range(2):              # a failed check is not remembered as passed
        with pytest.raises(store.FormatError, match="section 'b' fails its CRC-32 check"):
            c.section("b")


def test_a_file_without_a_section_table_is_read_unchecked(tmp_path):
    path = tmp_path / "old.bin"
    head = b'{"kind":"old"}'
    path.write_bytes(MAGIC + (1).to_bytes(4, "little") + len(head).to_bytes(8, "little")
                     + head + payload("a", 8) + payload("b", 16))
    c = store.load(path, MAGIC, (1,))
    with pytest.raises(store.FormatError, match="no section table"):
        c.expect([("a", 8), ("b", 16)])
    c.assume([("a", 8), ("b", 16)])
    assert bytes(c.section("b")) == payload("b", 16)


def test_a_check_keeps_what_was_written_to_a_page_another_section_shares(tmp_path,
                                                                       monkeypatch):
    # in a copy-on-write mapping, dropping a page discards the writes to it
    monkeypatch.setattr(store, "WINDOW", mmap.PAGESIZE)
    path = tmp_path / "c.bin"
    a, b = payload("a", mmap.PAGESIZE + 100), payload("b", 3 * mmap.PAGESIZE)
    write(path, [("a", a), ("b", b)])
    c = store.load(path, MAGIC, (1,), copy=True)
    first = np.frombuffer(c.section("a"), np.uint8)
    first[-1] ^= 0xff                  # on the page that b's first bytes share
    assert bytes(c.section("b")) == b
    assert first[-1] == a[-1] ^ 0xff and first[:-1].tobytes() == a[:-1]


@pytest.mark.parametrize("cpus", [1, 2])
def test_sections_are_checked_on_one_thread_per_cpu_or_inline(tmp_path, monkeypatch, cpus):
    monkeypatch.setattr(store, "WINDOW", mmap.PAGESIZE)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)
    started = []
    start = threading.Thread.start
    monkeypatch.setattr(threading.Thread, "start",
                        lambda thread: started.append(thread.name) or start(thread))
    path = tmp_path / "c.bin"
    sections = [(name, payload(name, 3 * mmap.PAGESIZE + 7)) for name in "abc"]
    raw = bytearray(write(path, sections))
    c = store.load(path, MAGIC, (1,))
    c.check(["a", "b", "c"])
    assert started == ["pairsim-check"] * (cpus - 1)     # the caller checks beside them
    raw[-1] ^= 1
    path.write_bytes(raw)
    c = store.load(path, MAGIC, (1,))
    with pytest.raises(store.FormatError, match="section 'c'"):
        c.check(["a", "b", "c"])
    assert bytes(c.section("a")) == sections[0][1]


def test_checks_take_the_cpus_this_process_has(tmp_path, monkeypatch):
    # under ``taskset -c 0`` every check runs inline, on the caller's thread
    started = []
    start = threading.Thread.start
    monkeypatch.setattr(threading.Thread, "start",
                        lambda thread: started.append(thread.name) or start(thread))
    path = tmp_path / "c.bin"
    sections = [(name, payload(name, store.WINDOW)) for name in "ab"]
    write(path, sections)
    before = threading.active_count()
    c = store.load(path, MAGIC, (1,))
    c.check(["a", "b"])
    assert len(started) == min(len(threads.cpus()), 2) - 1
    assert threading.active_count() == before
    for name, data in sections:
        assert bytes(c.section(name)) == data


def _rss_file_kb():
    with open("/proc/self/status") as fh:
        fields = dict(line.split(":", 1) for line in fh)
    return int(fields["RssFile"].split()[0])


@pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="needs Linux /proc")
@pytest.mark.parametrize("copy", [False, True], ids=["read-only", "copy-on-write"])
def test_a_check_does_not_keep_the_file_resident(tmp_path, copy):
    path = tmp_path / "c.bin"
    write(path, [("a", payload("a", 4 * store.WINDOW + 5))])
    c = store.load(path, MAGIC, (1,), copy=copy)
    before = _rss_file_kb()
    c.check(["a"])
    assert _rss_file_kb() - before < 1024


def test_a_failed_write_leaves_the_old_file_and_no_temporary_file(tmp_path, monkeypatch):
    path = tmp_path / "c.bin"
    old = write(path, [("a", payload("a", 10))])

    def refuse(*args):
        raise OSError("no room")
    monkeypatch.setattr(os, "replace", refuse)
    with pytest.raises(OSError, match="no room"):
        write(path, [("a", payload("b", 10))])
    assert path.read_bytes() == old and os.listdir(tmp_path) == ["c.bin"]


# ---------------------------------------------------------------------------
# threads.Crew, which runs every threaded job (the checks above among
# them).  Tests named for ``run_pinned``, ``PinnedThread`` and
# ``helpers`` test what those did before ``Crew`` took their place.


class OwnerFailure(BaseException):
    """A failure that is not an Exception, which ``run`` raises like any other."""


def both_started():
    """A barrier that keeps each of two jobs waiting for the other, so that
    the caller and a helper take one each."""
    return threading.Barrier(2, timeout=10)


def spy_on_helpers(monkeypatch):
    """The (CPU, name) of each helper thread started, as it pins itself."""
    made = []
    pin = threads._pin

    def spy(cpu):
        made.append((cpu, threading.current_thread().name))
        pin(cpu)

    monkeypatch.setattr(threads, "_pin", spy)
    return made


def test_a_pinned_thread_runs_each_job_on_its_cpu_and_is_joined(monkeypatch):
    cpu, where = threads.cpus()[-1], threads.current_cpu
    monkeypatch.setattr(threads, "current_cpu", lambda: -1)     # the caller's CPU
    barrier = both_started()

    def job(i):
        barrier.wait()
        return (i, threading.current_thread().name, os.sched_getaffinity(0), where())

    before = threading.active_count()
    with threads.Crew(1, "pairsim-test", [-1, cpu]) as crew:
        for i in range(3):
            results = crew.run([partial(job, i), partial(job, -i)])
            helper = [r for r in results if r[1] == "pairsim-test"]
            assert len(helper) == 1 and helper[0][2:] == ({cpu}, cpu)
            assert {r[0] for r in results} == {i, -i}
        with pytest.raises(ZeroDivisionError):
            crew.run([lambda: 1 // 0, lambda: "beside a failure"])
        assert crew.run([lambda: "after a failure"] * 2) == ["after a failure"] * 2
        assert os.sched_getaffinity(0) == set(threads.cpus())  # the owner's is unchanged
    assert threading.active_count() == before


def crew_of_two_jobs(fails: str, failure=OwnerFailure):
    """Run two jobs, one on the caller and one on a helper, where the
    ``fails`` one raises ``failure`` while the other is still running,
    followed by jobs that must never start; return the names of the
    threads whose jobs had ended when ``run`` raised."""
    barrier, ended = both_started(), []

    def job():
        barrier.wait()
        if (threading.current_thread().name == "pairsim-test") == (fails == "helper"):
            raise failure(fails)
        time.sleep(0.05)                # still running when the other fails
        ended.append(threading.current_thread().name)

    def never():
        ended.append("a job queued after the failure")

    before = threading.active_count()
    with threads.Crew(1, "pairsim-test", [None, None]) as crew:
        with pytest.raises(failure, match=fails):
            crew.run([job, job, never, never])
        at_raise = list(ended)
    assert threading.active_count() == before and ended == at_raise
    return at_raise


def test_a_pinned_thread_finishes_its_job_when_the_owner_fails():
    assert crew_of_two_jobs("caller") == ["pairsim-test"]


def test_a_helper_failure_that_is_no_exception_is_raised_once_the_caller_ends():
    assert crew_of_two_jobs("helper") == ["MainThread"]


@pytest.mark.parametrize("fails, other", [("caller", "pairsim-test"), ("helper", "MainThread")])
def test_an_exception_is_raised_once_the_other_running_job_has_ended(fails, other):
    assert crew_of_two_jobs(fails, KeyError) == [other]


def test_run_raises_the_first_of_two_failures():
    barrier = both_started()

    def job():
        barrier.wait()
        if threading.current_thread().name == "pairsim-test":
            raise KeyError("first")
        time.sleep(0.05)
        raise ValueError("second")

    with threads.Crew(1, "pairsim-test", [None, None]) as crew:
        with pytest.raises(KeyError, match="first"):
            crew.run([job, job])
        assert crew.run([lambda: 1, lambda: 2]) == [1, 2]


def test_pinned_threads_hand_each_owner_the_result_of_its_own_job():
    # four owners, each with its own crew, on fewer cores than threads,
    # switching as often as the interpreter allows
    failures = []

    def owner(n):
        with threads.Crew(1, "pairsim-test", [None, None]) as crew:
            for i in range(500):
                if crew.run([lambda i=i: (n, i), lambda i=i: (n, -i)]) != [(n, i), (n, -i)]:
                    failures.append((n, i))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        owners = [threading.Thread(target=owner, args=(n,)) for n in range(4)]
        for thread in owners:
            thread.start()
        for thread in owners:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in owners) and failures == []


def failing_job():
    raise KeyError("job 2")


@pytest.mark.parametrize("cpus, jobs", [(1, 5), (2, 5), (3, 5), (3, 2), (3, 1), (3, 0)])
def test_run_pinned_runs_the_caller_beside_one_helper_per_other_cpu(monkeypatch, cpus, jobs):
    monkeypatch.setattr(threads, "current_cpu", lambda: 0)
    made = spy_on_helpers(monkeypatch)
    calls = []
    work = [lambda i=i: calls.append(i) or i * i for i in range(jobs)]
    if jobs > 2:
        work[2] = failing_job
    before = threading.active_count()
    with threads.Crew(jobs - 1, "pairsim-test", list(range(cpus))) as crew:
        if jobs > 2:
            with pytest.raises(KeyError, match="job 2"):
                crew.run(work)
        else:
            assert crew.run(work) == [i * i for i in range(jobs)]
    assert threading.active_count() == before
    # the caller is on CPU 0; at most one helper per job beyond the first
    assert sorted(made) == [(cpu, "pairsim-test") for cpu in range(1, min(cpus, jobs))]
    if jobs <= 2:
        assert sorted(calls) == list(range(jobs))
    elif cpus == 1:
        assert calls == [0, 1]              # one queue, taken in job order, none after job 2
    else:
        # jobs 0 and 1 were taken before job 2 and ended; 3 and 4 were
        # taken only if another thread came to the queue before job 2 failed
        assert {0, 1} <= set(calls) <= {0, 1, 3, 4} and len(set(calls)) == len(calls)


def test_run_pinned_runs_a_helper_that_cannot_start_on_the_caller(monkeypatch):
    monkeypatch.setattr(threads, "current_cpu", lambda: 0)
    tried = []

    def refuse(thread):
        tried.append(thread.name)
        raise RuntimeError("can't start new thread")

    monkeypatch.setattr(threading.Thread, "start", refuse)
    calls = []
    work = [lambda i=i: calls.append(i) or i + 1 for i in range(6)]
    before = threading.active_count()
    with threads.Crew(5, "pairsim-test", [0, 1, 2]) as crew:
        assert crew.helpers == []
        assert crew.run(work) == [1, 2, 3, 4, 5, 6]
    assert tried == ["pairsim-test"] * 2 and threading.active_count() == before
    assert calls == list(range(6))          # each job once, in order, as on one CPU


def test_run_pinned_without_affinity_calls_starts_unpinned_helpers(monkeypatch):
    # os.sched_getaffinity is missing outside Linux: every CPU is None, and
    # so is the caller's, yet only one of them is the caller's
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 3)
    monkeypatch.setattr(threads, "current_cpu", lambda: None)
    made = spy_on_helpers(monkeypatch)
    assert threads.cpus() == [None] * 3
    with threads.Crew(3, "pairsim-test") as crew:
        assert crew.run([lambda i=i: i for i in range(4)]) == [0, 1, 2, 3]
    assert made == [(None, "pairsim-test")] * 2


@pytest.mark.parametrize("here, pinned", [(0, [1, 2]), (1, [0, 2]), (2, [0, 1]),
                                          (None, [0, 1]), (7, [0, 1])])
def test_helpers_are_pinned_away_from_the_callers_cpu(monkeypatch, here, pinned):
    monkeypatch.setattr(threads, "current_cpu", lambda: here)
    made = spy_on_helpers(monkeypatch)
    with threads.Crew(3, "pairsim-test", [0, 1, 2]) as crew:
        assert len(crew.helpers) == 2
    assert sorted(made) == [(cpu, "pairsim-test") for cpu in pinned]


def test_run_pinned_runs_each_job_once_with_more_helpers_than_cores(monkeypatch):
    # four helpers beside the caller share one queue on fewer cores,
    # switching as often as the interpreter allows
    monkeypatch.setattr(threads, "current_cpu", lambda: None)
    calls = []
    jobs = [lambda i=i: calls.append(i) or i for i in range(2000)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with threads.Crew(4, "pairsim-test", [None] * 5) as crew:
            assert len(crew.helpers) == 4
            results = crew.run(jobs)
    finally:
        sys.setswitchinterval(interval)
    assert results == list(range(2000)) and sorted(calls) == list(range(2000))
