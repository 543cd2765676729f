"""The reachability allow-list, checked from the AST alone.

``tools/reachability.py`` runs every shipped entry point under a call
recorder (nightly) and fails unless the ``src/`` functions none of them
reached are exactly the names of ``tools/reachability_allow.txt``.  The
checks here need no run: every entry names a function that exists, the
list is sorted and unique, every entry carries one reason tag from the
fixed set, and the list never grows past its committed ceiling.
"""

import importlib.util
import os
import re

import pytest

TOOL = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                    "tools", "reachability.py")


@pytest.fixture(scope="module")
def reachability():
    spec = importlib.util.spec_from_file_location("reachability", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def entries(reachability):
    return reachability.allow_list()


def test_every_entry_names_a_function_in_src(reachability, entries):
    functions = set(reachability.functions().values())
    assert [entry[0] for entry in entries if entry[0] not in functions] == []


def test_entries_are_sorted_and_unique(entries):
    names = [entry[0] for entry in entries]
    assert names == sorted(set(names))


def test_every_entry_carries_one_known_reason_tag(reachability, entries):
    *fixed, reserved = reachability.TAGS
    pattern = re.compile(re.escape(reserved) + r"\d+[a-z]?")
    for entry in entries:
        assert len(entry) == 2, entry
        assert entry[1] in fixed or pattern.fullmatch(entry[1]), entry


def test_the_list_stays_within_its_ceiling(reachability, entries):
    assert len(entries) <= reachability.MAX_ALLOWED

