"""Docstring audit of the public API (a pydocstyle-style gate, stdlib-only).

The documentation site renders the audited modules' docstrings directly
(mkdocstrings), so gaps there become gaps in the published reference.  The
audited surface — everything the docs' runtime guides lean on — must
satisfy:

* every audited module has a module docstring;
* every public module-level class and function has a docstring **with an
  example** (a ``>>>`` doctest-style snippet), so the API reference always
  shows how to call it.  Exception classes and ``typing.Protocol``
  definitions only need a docstring (an "example" of raising an error or of
  an abstract protocol adds nothing);
* every public method of those classes has a docstring.

Extend ``AUDITED_MODULES`` when a new module joins the documented public
surface.
"""

import inspect
import typing

import pytest

import repro.api
import repro.api.session
import repro.core.multitime
import repro.core.probability
import repro.core.registry
import repro.core.secure
import repro.core.selectors
import repro.crypto.packing
import repro.federated
import repro.federated.aggregation
import repro.federated.client
import repro.federated.executor
import repro.federated.history
import repro.federated.server
import repro.federated.simulation
import repro.federated.workspace
import repro.ledger
import repro.ledger.cli
import repro.ledger.codec
import repro.ledger.context
import repro.ledger.modes
import repro.ledger.recipes
import repro.ledger.store
import repro.nn.batched
import repro.scenarios.engine
import repro.scenarios.spec
import repro.transport
import repro.transport.base
import repro.transport.chaos
import repro.transport.client
import repro.transport.messages
import repro.transport.server
import repro.transport.wire

AUDITED_MODULES = [
    repro.api,
    repro.api.session,
    repro.core.multitime,
    repro.core.probability,
    repro.core.registry,
    repro.core.secure,
    repro.core.selectors,
    repro.federated,
    repro.federated.aggregation,
    repro.federated.client,
    repro.federated.executor,
    repro.federated.history,
    repro.federated.server,
    repro.federated.simulation,
    repro.federated.workspace,
    repro.ledger,
    repro.ledger.cli,
    repro.ledger.codec,
    repro.ledger.context,
    repro.ledger.modes,
    repro.ledger.recipes,
    repro.ledger.store,
    repro.nn.batched,
    repro.crypto.packing,
    repro.scenarios.engine,
    repro.scenarios.spec,
    repro.transport,
    repro.transport.base,
    repro.transport.chaos,
    repro.transport.client,
    repro.transport.messages,
    repro.transport.server,
    repro.transport.wire,
]

#: inherited members whose docstrings live on the base/stdlib class
_INHERITED_OK = frozenset(dir(list) + dir(Exception) + dir(dict))


def _public_objects(module):
    """(name, obj) pairs for the module's public classes and functions."""
    names = getattr(module, "__all__", None)
    if names is None:
        names = [n for n in dir(module) if not n.startswith("_")]
    for name in names:
        obj = getattr(module, name)
        if not (inspect.isclass(obj) or inspect.isfunction(obj)):
            continue
        if getattr(obj, "__module__", None) != module.__name__:
            continue  # re-exported: audited where it is defined
        yield name, obj


def _needs_example(obj) -> bool:
    if inspect.isclass(obj):
        if issubclass(obj, BaseException):
            return False
        if getattr(obj, "_is_protocol", False) or typing.get_origin(obj):
            return False
    return True


def _audit_cases(keep=lambda obj: True):
    """One parameter per audited public object that *keep* applies to."""
    return [
        pytest.param(module, name, obj, id=f"{module.__name__}.{name}")
        for module in AUDITED_MODULES
        for name, obj in _public_objects(module)
        if keep(obj)
    ]


class TestModuleDocstrings:
    @pytest.mark.parametrize("module", AUDITED_MODULES,
                             ids=lambda m: m.__name__)
    def test_module_has_docstring(self, module):
        assert (module.__doc__ or "").strip(), \
            f"{module.__name__} has no module docstring"


class TestPublicObjectDocstrings:
    @pytest.mark.parametrize("module,name,obj", _audit_cases())
    def test_docstring_present(self, module, name, obj):
        assert (inspect.getdoc(obj) or "").strip(), \
            f"{module.__name__}.{name} has no docstring"

    @pytest.mark.parametrize("module,name,obj", _audit_cases(_needs_example))
    def test_docstring_has_example(self, module, name, obj):
        doc = inspect.getdoc(obj) or ""
        assert ">>>" in doc, (
            f"{module.__name__}.{name}'s docstring has no '>>>' example; "
            "the API reference should always show a usage snippet"
        )

    @pytest.mark.parametrize("module,name,obj", _audit_cases(inspect.isclass))
    def test_public_methods_have_docstrings(self, module, name, obj):
        undocumented = []
        for attr, member in vars(obj).items():
            if attr.startswith("_"):
                continue
            if attr in _INHERITED_OK:
                continue
            if isinstance(member, property):
                func = member.fget
            elif inspect.isfunction(member):
                func = member
            else:
                continue
            if not (inspect.getdoc(func) or "").strip():
                undocumented.append(attr)
        assert not undocumented, (
            f"{module.__name__}.{name} has undocumented public members: "
            f"{undocumented}"
        )
