"""Every example in ``repro``'s docstrings runs and shows what it prints.

The API reference publishes these examples (mkdocstrings), so each one must
pass as written.  Each module's examples run in an empty working directory
that must still be empty afterwards, and no example may read a private
attribute: an example shows how to use the public API.
"""

import doctest
import importlib
import pkgutil
import re

import pytest

import repro

MODULES = ["repro"] + sorted(
    info.name for info in pkgutil.walk_packages(repro.__path__, "repro."))

#: attribute access to a single-underscore name, e.g. ``session._recipe``
PRIVATE_READ = re.compile(r"[\w)\]]\._[A-Za-z]")


@pytest.mark.parametrize("name", MODULES)
def test_module_examples_pass(name, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    module = importlib.import_module(name)
    runner = doctest.DocTestRunner(verbose=False)
    report: list[str] = []
    for test in doctest.DocTestFinder().find(module):
        for example in test.examples:
            assert not PRIVATE_READ.search(example.source), (
                f"{test.name} reads a private attribute: {example.source}")
        runner.run(test, out=report.append)
    assert runner.failures == 0, "".join(report)
    assert list(tmp_path.iterdir()) == [], "an example left files behind"


def test_the_examples_are_collected():
    # a finder that silently saw nothing would pass every module above
    found = sum(len(test.examples)
                for name in MODULES
                for test in doctest.DocTestFinder().find(
                    importlib.import_module(name)))
    assert found > 400
