import operator
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from crowdvol.parallel import parallel_map

SRC = str(Path(__file__).resolve().parents[1] / "src")


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.parametrize("workers", [1, 2, 3, 8])
@pytest.mark.parametrize("n_items", [0, 1, 5, 23])
def test_parallel_map_passes_shared_state_and_keeps_order(workers, n_items):
    items = range(n_items)  # 5 items at 8 workers: more workers than items
    assert parallel_map(operator.sub, (100,), items, workers) == [100 - i for i in items]
    assert_no_child_left()


def failing_at(failures: dict):
    """fn that raises failures[item] for the items it names."""
    def fn(item):
        if item in failures:
            raise failures[item]
        return item
    return fn


@pytest.mark.parametrize(
    "failures, want",
    [
        # 12 items at 3 workers: this process runs items 0-3, children 4-7 and 8-11
        ({2: ValueError("item 2"), 9: LookupError("item 9")}, ValueError("item 2")),
        ({5: KeyError("item 5"), 6: ValueError("item 6"), 10: LookupError("item 10")}, KeyError("item 5")),
        ({9: ZeroDivisionError("item 9"), 11: ValueError("item 11")}, ZeroDivisionError("item 9")),
    ],
    ids=["parent-block", "child-block-and-later-child", "last-child"],
)
def test_earliest_failing_item_raises(failures, want):
    with pytest.raises(Exception) as info:
        parallel_map(failing_at(failures), (), range(12), 3)
    assert type(info.value) is type(want) and info.value.args == want.args
    assert_no_child_left()


class NeedsTwoArgs(Exception):
    def __init__(self, a, b):  # pickles, but cannot be rebuilt from args=(a,)
        super().__init__(a)


class HoldsALambda(Exception):
    def __init__(self, message):
        super().__init__(message)
        self.callback = lambda: None  # does not pickle


@pytest.mark.parametrize("exc", [NeedsTwoArgs("odd one", 2), HoldsALambda("cannot travel")], ids=lambda e: type(e).__name__)
def test_exception_that_does_not_pickle_comes_back_as_runtime_error(exc):
    with pytest.raises(RuntimeError, match=f"^{type(exc).__name__}: {exc}$"):
        parallel_map(failing_at({3: exc}), (), range(4), 2)
    assert_no_child_left()


def test_killed_child_raises_promptly():
    parent = os.getpid()

    def fn(item):
        if os.getpid() != parent and item == 6:
            os.kill(os.getpid(), signal.SIGKILL)
        return item

    start = time.monotonic()
    with pytest.raises(RuntimeError, match=r"block 2 of 2 \(items 4 to 7\) was killed by signal 9 without a result"):
        parallel_map(fn, (), range(8), 2)
    assert time.monotonic() - start < 10
    assert_no_child_left()


def test_interrupt_in_this_process_kills_children():
    parent = os.getpid()

    def fn(item):
        if os.getpid() != parent:
            time.sleep(60)
        elif item == 1:
            raise KeyboardInterrupt
        return item

    start = time.monotonic()
    with pytest.raises(KeyboardInterrupt):
        parallel_map(fn, (), range(6), 3)
    assert time.monotonic() - start < 10
    assert_no_child_left()


def run_script(tmp_path, code: str) -> None:
    """Run `code` in a new interpreter in tmp_path, stdout to stdout.txt."""
    env = {**os.environ, "PYTHONPATH": SRC}
    with open(tmp_path / "stdout.txt", "w") as stdout:
        proc = subprocess.run([sys.executable, "-c", code], stdout=stdout, stderr=subprocess.PIPE,
                              cwd=tmp_path, env=env, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


def test_text_printed_before_gen_appears_once(tmp_path):
    (tmp_path / "scene.cfg").write_text("frames.train=0\nframes.val=0\nframes.test=4\n")
    run_script(tmp_path, (
        "import sys\n"
        "from crowdvol.cli import main\n"
        "print('before gen')\n"
        "sys.exit(main(['gen', '--config', 'scene.cfg', '--out', 'g', '--workers', '2']))\n"
    ))
    lines = (tmp_path / "stdout.txt").read_text().splitlines()
    assert lines[:3] == ["before gen", "train: 0 frames, 0 persons", "val: 0 frames, 0 persons"]
    assert len(lines) == 4 and lines[3].startswith("test: 4 frames, ")


def test_atexit_handler_runs_once(tmp_path):
    run_script(tmp_path, (
        "import atexit, operator\n"
        "from crowdvol.parallel import parallel_map\n"
        "atexit.register(lambda: open('atexit.txt', 'a').write('ran\\n'))\n"
        "assert parallel_map(operator.add, (1,), range(9), 3) == list(range(1, 10))\n"
    ))
    assert (tmp_path / "atexit.txt").read_text() == "ran\n"
