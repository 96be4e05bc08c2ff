"""The ``purity`` rule pack: one known-bad snippet per rule, plus the
suppression syntax and the idioms that must stay exempt."""

from repro.check.static.rules.purity import RULES
from repro.check.static import analyze_source


def rules_of(source):
    report = analyze_source(source, "snippet.py", rules=["purity"])
    return [f.rule for f in report.findings]


# ------------------------------------------------------------ wallclock
def test_wallclock_time_calls_are_flagged():
    assert rules_of("import time\nt = time.time()\n") == ["wallclock"]
    assert rules_of("import time\nt = time.perf_counter()\n") == ["wallclock"]
    assert rules_of(
        "from datetime import datetime\nd = datetime.now()\n"
    ) == ["wallclock"]
    assert rules_of(
        "import datetime\nd = datetime.date.today()\n"
    ) == ["wallclock"]


def test_simulated_time_is_not_wallclock():
    assert rules_of("def f(sim):\n    return sim.now\n") == []
    # An unrelated method that happens to be called .time() is fine.
    assert rules_of("t = span.time()\n") == []


# -------------------------------------------------------- global-random
def test_global_random_draws_are_flagged():
    assert rules_of("import random\nx = random.random()\n") == ["global-random"]
    assert rules_of("import random\nx = random.randint(1, 6)\n") == ["global-random"]
    assert rules_of("import random\nrandom.shuffle(items)\n") == ["global-random"]
    assert rules_of("import random\nrandom.seed(42)\n") == ["global-random"]


def test_seeded_instances_are_allowed():
    assert rules_of("import random\nrng = random.Random(42)\n") == []
    assert rules_of(
        "import random\nrng = random.Random(1)\nx = rng.random()\n"
    ) == []


# ------------------------------------------------------- set-iteration
def test_iterating_a_set_binding_is_flagged():
    src = "waiters = set()\nfor w in waiters:\n    w.wake()\n"
    assert rules_of(src) == ["set-iteration"]


def test_set_comprehension_and_wrappers_are_flagged():
    src = "pending = {1, 2}\nout = [x for x in pending]\n"
    assert rules_of(src) == ["set-iteration"]
    src = "pending = {1, 2}\nout = list(pending)\n"
    assert rules_of(src) == ["set-iteration"]


def test_set_typed_attribute_is_tracked():
    src = (
        "class Pool:\n"
        "    def __init__(self):\n"
        "        self.live = set()\n"
        "    def drain(self):\n"
        "        for x in self.live:\n"
        "            x.close()\n"
    )
    assert rules_of(src) == ["set-iteration"]


def test_iterating_a_set_literal_in_place_is_flagged():
    # No binding involved: the literal (or set() call) is the iterable.
    assert rules_of("for x in {1, 2, 3}:\n    pass\n") == ["set-iteration"]
    assert rules_of("out = [x for x in set(items)]\n") == ["set-iteration"]


def test_sorted_iteration_of_a_set_is_exempt():
    # sorted() imposes a deterministic order, so it is the sanctioned
    # way to walk a set.
    src = "names = {'b', 'a'}\nfor n in sorted(names):\n    print(n)\n"
    assert rules_of(src) == []


def test_list_iteration_is_not_flagged():
    assert rules_of("items = [1, 2]\nfor x in items:\n    pass\n") == []


# ------------------------------------------------------ mutable-default
def test_mutable_default_args_are_flagged():
    assert rules_of("def f(x, acc=[]):\n    pass\n") == ["mutable-default"]
    assert rules_of("def f(x, acc={}):\n    pass\n") == ["mutable-default"]
    assert rules_of("def f(*, acc=set()):\n    pass\n") == ["mutable-default"]
    assert rules_of("def f(acc=list()):\n    pass\n") == ["mutable-default"]


def test_immutable_defaults_are_fine():
    assert rules_of("def f(x=3, y=(), z=None, s=''):\n    pass\n") == []


# --------------------------------------------------------- suppression
def test_per_rule_suppression_comment():
    src = "import time\nt = time.time()  # lint-sim: allow[wallclock]\n"
    assert rules_of(src) == []


def test_suppression_only_matches_its_rule():
    src = "import time\nt = time.time()  # lint-sim: allow[global-random]\n"
    assert rules_of(src) == ["wallclock"]


def test_wildcard_suppression():
    src = "import random\nx = random.random()  # lint-sim: allow[*]\n"
    assert rules_of(src) == []


# ------------------------------------------------------------ plumbing
def test_every_rule_has_a_failing_snippet():
    snippets = {
        "wallclock": "import time\nt = time.time()\n",
        "global-random": "import random\nx = random.random()\n",
        "set-iteration": "s = set()\nfor x in s:\n    pass\n",
        "mutable-default": "def f(a=[]):\n    pass\n",
    }
    assert set(snippets) == set(RULES)
    for rule, src in snippets.items():
        assert rules_of(src) == [rule]
