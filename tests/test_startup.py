"""Start-up: `import wlift` loads HiGHS's bindings alone, not scipy.optimize.

Each check runs in a fresh interpreter, so that the modules loaded by this
test process do not hide what an import loads."""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
CORE = "scipy.optimize._highspy._core"

# W_2^2 of circle pairs, all solved by the LP; printed as exact hex floats
VALUES = """
import numpy as np
import wlift as w
rng = np.random.default_rng(7)
sp = w.circle(2.0)
def measure(n):
    wts = rng.uniform(0.2, 1.0, n)
    return w.make_measure(sp, rng.uniform(0, 2.0, (n, 1)), wts / wts.sum())
pairs = [(measure(4), measure(5)) for _ in range(6)]
values = [float(v).hex() for v in w.wasserstein_many(pairs, 2.0)]
"""


def run(code):
    """The JSON object the last line of `code`'s standard output holds."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr[-2000:]
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_import_leaves_scipy_optimize_out():
    out = run(
        "import json, sys\n"
        "import wlift, wlift.cli\n"
        f"print(json.dumps({{m: m in sys.modules for m in "
        f"('scipy.optimize', 'scipy.sparse', {CORE!r})}}))"
    )
    assert out == {"scipy.optimize": False, "scipy.sparse": False, CORE: True}


def test_import_makes_no_solver():
    # the thread's HiGHS solver is made by its first LP, not by the import
    out = run(
        "import json\n"
        "import wlift, wlift.cli\n"
        "from wlift import transport\n"
        "before = 'highs' in vars(transport._thread)\n"
        + VALUES +
        "print(json.dumps({'before': before, 'after': transport._thread.highs is not None}))"
    )
    assert out == {"before": False, "after": True}


def test_scipy_optimize_reuses_the_loaded_bindings():
    out = run(
        "import json, sys\n"
        "import wlift\n"
        "from wlift import transport\n"
        "import scipy.optimize\n"
        "from scipy.optimize._highspy import _core\n"
        "res = scipy.optimize.linprog([1.0, 2.0], A_eq=[[1.0, 1.0]], b_eq=[1.0], method='highs')\n"
        "print(json.dumps({'same': _core is transport._highs is sys.modules[" + repr(CORE) + "],\n"
        "                  'fun': res.fun}))"
    )
    assert out == {"same": True, "fun": 1.0}


def test_linprog_resolves_on_first_access():
    out = run(
        "import json, sys\n"
        "from wlift import transport\n"
        "before = 'linprog' in vars(transport) or 'scipy.optimize' in sys.modules\n"
        "solve = transport.linprog\n"
        "print(json.dumps({'before': before, 'name': solve.__name__,\n"
        "                  'module': solve.__module__.split('.')[:2]}))"
    )
    assert out == {"before": False, "name": "linprog", "module": ["scipy", "optimize"]}


FAIL_FILE_LOAD = """
import importlib.util
def refuse(*args, **kwargs):
    raise OSError("no file load")
importlib.util.spec_from_file_location = refuse
"""


def test_loaded_ways_give_identical_values():
    # the file load; an entry already in sys.modules; the file load failing,
    # so that the normal import runs
    report = VALUES + (
        "import json, sys\n"
        "from wlift import transport\n"
        "print(json.dumps({'values': values, 'optimize': 'scipy.optimize' in sys.modules,\n"
        f"                  'same': transport._highs is sys.modules[{CORE!r}]}}))"
    )
    loaded = run(report)
    preloaded = run("import scipy.optimize\n" + report)
    fallback = run(FAIL_FILE_LOAD + report)
    assert (loaded["optimize"], loaded["same"]) == (False, True)
    assert (preloaded["optimize"], preloaded["same"]) == (True, True)
    assert (fallback["optimize"], fallback["same"]) == (True, True)
    assert preloaded["values"] == fallback["values"] == loaded["values"]


def test_missing_bindings_leave_highs_none():
    # both loads failing, as on a scipy release without the bindings; and an
    # import of the bindings blocked by a None entry, which is kept as well
    report = (
        "import json, sys\n"
        "from wlift import transport\n"
        f"print(json.dumps({{'highs': transport._highs, 'entry': sys.modules.get({CORE!r}, 0)}}))"
    )
    missing = run(FAIL_FILE_LOAD + "import sys\nsys.modules['scipy.optimize._highspy'] = None\n"
                  + report)
    blocked = run(f"import sys\nsys.modules[{CORE!r}] = None\n" + report)
    assert missing == {"highs": None, "entry": 0}
    assert blocked == {"highs": None, "entry": None}


LSAP = "scipy.optimize._lsap"

# optimal plans of equal-weight circle pairs, all settled by the assignment
# solver; printed as exact hex floats
PLANS = """
import numpy as np
import wlift as w
from wlift import transport
rng = np.random.default_rng(8)
sp = w.circle(2.0)
def measure(n):
    return w.make_measure(sp, rng.uniform(0, 2.0, (n, 1)), np.full(n, 1.0 / n))
pairs = [(measure(n), measure(n)) for n in (3, 4, 5, 6) for _ in range(3)]
plans = [[float(x).hex() for x in c.weights.ravel()] + [float(cost).hex()]
         for c, cost in transport._optimal_couplings(pairs, 2.0)]
"""


def test_import_leaves_the_assignment_solver_out():
    # loaded on the first equal-weight square block, not with wlift
    out = run(
        "import json, sys\n"
        "import wlift, wlift.cli\n"
        "before = " + repr(LSAP) + " in sys.modules\n"
        + PLANS +
        "print(json.dumps({'before': before, 'after': " + repr(LSAP) + " in sys.modules}))"
    )
    assert out == {"before": False, "after": True}


def test_scipy_optimize_reuses_the_loaded_assignment_solver():
    out = run(
        "import json, sys\n"
        + PLANS +
        "loaded = 'scipy.optimize' not in sys.modules and transport._lsap() is sys.modules["
        + repr(LSAP) + "]\n"
        "import scipy.optimize\n"
        "r, c = scipy.optimize.linear_sum_assignment([[1.0, 0.0, 2.0], [0.0, 1.0, 2.0],"
        " [2.0, 2.0, 0.0]])\n"
        "print(json.dumps({'loaded': loaded, 'cols': c.tolist(), 'same':"
        " scipy.optimize.linear_sum_assignment is transport._lsap().linear_sum_assignment}))"
    )
    assert out == {"loaded": True, "cols": [1, 0, 2], "same": True}


def test_assignment_solver_loaded_ways_give_identical_plans():
    # the file load; an entry already in sys.modules; the file load failing,
    # so that the normal import runs
    report = PLANS + (
        "import json, sys\n"
        "print(json.dumps({'plans': plans, 'optimize': 'scipy.optimize' in sys.modules,\n"
        f"                  'same': transport._lsap() is sys.modules[{LSAP!r}]}}))"
    )
    loaded = run(report)
    preloaded = run("import scipy.optimize\n" + report)
    fallback = run(FAIL_FILE_LOAD + report)
    assert (loaded["optimize"], loaded["same"]) == (False, True)
    assert (preloaded["optimize"], preloaded["same"]) == (True, True)
    assert (fallback["optimize"], fallback["same"]) == (True, True)
    assert preloaded["plans"] == fallback["plans"] == loaded["plans"]


def test_threads_racing_to_the_first_assignment_load_it_once():
    # more threads than cores, switching often, all asking for the solver
    # together, while its file search is slowed down to let them overlap:
    # one module object, the same plans
    out = run(
        "import json, os, sys, threading, time\n"
        + PLANS +
        "sys.setswitchinterval(1e-6)\n"
        "isfile = os.path.isfile\n"
        "os.path.isfile = lambda f: time.sleep(0.01) or isfile(f)\n"
        "transport._lsap.cache_clear()\n"
        "del sys.modules[" + repr(LSAP) + "]\n"
        "barrier, seen = threading.Barrier(4), []\n"
        "def work():\n"
        "    barrier.wait(timeout=60)\n"
        "    module = transport._lsap()\n"
        "    got = [[float(x).hex() for x in c.weights.ravel()] + [float(cost).hex()]\n"
        "           for c, cost in transport._optimal_couplings(pairs, 2.0)]\n"
        "    seen.append((module, got))\n"
        "threads = [threading.Thread(target=work) for _ in range(4)]\n"
        "for t in threads:\n"
        "    t.start()\n"
        "for t in threads:\n"
        "    t.join(timeout=60)\n"
        "print(json.dumps({'done': len(seen), 'alive': any(t.is_alive() for t in threads),\n"
        "                  'modules': len({id(m) for m, _ in seen}),\n"
        "                  'same': all(m is sys.modules[" + repr(LSAP) + "] for m, _ in seen),\n"
        "                  'plans': all(got == plans for _, got in seen)}))"
    )
    assert out == {"done": 4, "alive": False, "modules": 1, "same": True, "plans": True}
