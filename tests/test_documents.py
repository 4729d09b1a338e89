"""Every input document ends in exit 0, 1 or 2, never in a traceback.

A property test over the bundled scenario and batch files: one leaf or
subtree of a document (the whole document included) is replaced by a value
of the wrong kind, range or shape, or deleted, and the document goes
through cli.main in process, with or without a --seed override.
"""

from __future__ import annotations

import contextlib
import copy
import io
import json
import os
import tempfile

from hypothesis import given, settings
from hypothesis import strategies as st

from fluctlab.cli import main

SCENARIO_DIR = os.path.join(os.path.dirname(__file__), "..", "scenarios")
BATCH_FILES = ("batch_mixed.json", "batch_unital.json")
SCENARIO_FILES = ("amplitude_damping_golden.json", "identity.json",
                  "random_qutrit.json", "unitary_flip.json")

SCENARIO_COMMANDS = (
    ("run",),
    ("sweep", "--param", "beta", "--values", "0.5,2"),
    ("sweep", "--param", "channel.p", "--values", "0.3"),
)
BATCH_COMMANDS = (("batch",),)


def load(name: str):
    with open(os.path.join(SCENARIO_DIR, name)) as fh:
        doc = json.load(fh)
    if name in BATCH_FILES:
        doc["count"] = 3  # a few seeds per campaign keep each example short
    return doc


DOCS = [(BATCH_COMMANDS if name in BATCH_FILES else SCENARIO_COMMANDS, load(name))
        for name in SCENARIO_FILES + BATCH_FILES]


def paths(node, prefix=()):
    """The path of node and of every node below it, as key/index tuples."""
    yield prefix
    items = node.items() if isinstance(node, dict) else (
        enumerate(node) if isinstance(node, list) else ())
    for key, child in items:
        yield from paths(child, prefix + (key,))


CASES = [(i, path) for i, (_, doc) in enumerate(DOCS) for path in paths(doc)]

# values of the wrong kind or range; the named edits below change the shape.
# Huge finite floats such as 1e300 are not here yet: with beta * E near the
# float range, the report overflows with RuntimeWarnings (an open defect).
REPLACEMENTS = (float("nan"), float("inf"), float("-inf"), 10**400, -(10**400),
                -1, 0, -0.5, 2.5, "1.0", "7", "abc", True, False, None,
                [], {}, [[1]], [float("nan")], "nest", "double", "truncate", "delete")


def mutated(doc, path, new):
    """A copy of doc with the node at path replaced by new, or edited as new names."""
    doc = copy.deepcopy(doc)
    if not path:
        return [doc] if new in ("nest", "double") else None if new == "delete" else new
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    key, old = path[-1], parent[path[-1]]
    if new == "delete":
        del parent[key]
    elif new == "nest":
        parent[key] = [old]
    elif new == "double":
        parent[key] = old + old[:1] if isinstance(old, list) else [old, old]
    elif new == "truncate":
        parent[key] = old[:-1] if isinstance(old, list) else []
    else:
        parent[key] = new
    return doc


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(case=st.sampled_from(CASES), new=st.sampled_from(REPLACEMENTS),
       pick=st.integers(0, 2), seed=st.sampled_from([None, "-1", "0", "3"]))
def test_every_document_exits_cleanly(case, new, pick, seed):
    index, path = case
    commands, doc = DOCS[index]
    command = commands[pick % len(commands)]
    with tempfile.TemporaryDirectory() as tmp:
        path_in = os.path.join(tmp, "doc.json")
        with open(path_in, "w") as fh:
            json.dump(mutated(doc, path, new), fh)
        out = os.path.join(tmp, "out")
        flags = [] if seed is None else ["--seed", seed]
        err = io.StringIO()
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            code = main([command[0], path_in, *command[1:], "--out", out, "--quiet", *flags])
        assert code in (0, 1, 2)
        if code == 1:
            assert err.getvalue().startswith("error:")
            assert not os.path.exists(out)
