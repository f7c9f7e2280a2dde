import threading

from chaoskit.config import (
    DEFAULT_ENTRY_BUDGET,
    budget,
    entry_budget,
    set_thread_count,
    thread_override,
)


def _run_threads(*targets):
    threads = [threading.Thread(target=t) for t in targets]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=30)
    assert not any(t.is_alive() for t in threads)


def test_budget_holds_per_thread():
    inside = threading.Barrier(2, timeout=10)
    seen = {}

    def body(n):
        with budget(n):
            inside.wait()  # both contexts entered
            seen[n] = entry_budget()
            inside.wait()  # both read before either exits

    _run_threads(lambda: body(100), lambda: body(200))
    assert seen == {100: 100, 200: 200}


def test_budget_contexts_closing_out_of_order_restore_the_default():
    before = entry_budget()
    steps = [threading.Event() for _ in range(3)]

    def first():
        with budget(100):
            steps[0].set()
            steps[1].wait(10)
        steps[2].set()  # the first context closes before the second

    def second():
        steps[0].wait(10)
        with budget(200):
            steps[1].set()
            steps[2].wait(10)

    _run_threads(first, second)
    assert all(s.is_set() for s in steps)
    assert entry_budget() == before


def test_new_threads_start_from_the_defaults():
    seen = []
    set_thread_count(3)
    try:
        with budget(50):
            _run_threads(lambda: seen.append((entry_budget(), thread_override())))
    finally:
        set_thread_count(None)
    assert seen == [(DEFAULT_ENTRY_BUDGET, None)]
