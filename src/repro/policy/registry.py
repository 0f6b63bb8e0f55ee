"""Policy registry and the session-wide active-policy swap.

Two composable ways to select a policy:

* **Explicit**: pass ``policy=`` to a deployment (or ``--policy`` to the
  chaos CLI) — a registry name, a :class:`~repro.policy.base.Policy`
  subclass, or an already-constructed instance (re-bound to the new
  deployment, keeping its learned state — how an online tuner carries
  knowledge across uploads that each build a fresh deployment).

* **Ambient**: :func:`use_policy` swaps the module-level default that
  every deployment constructed *without* an explicit policy picks up,
  so existing drivers (experiments, workloads, the chaos campaign) run
  under a policy without threading a parameter through every call site.

Built-in policies self-register on first use via their module import;
:func:`register_policy` adds new ones (see DESIGN.md §12).
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import TYPE_CHECKING, Iterator, Optional, Type, Union

from .base import Policy

if TYPE_CHECKING:  # pragma: no cover
    from ..hdfs.deployment import HdfsDeployment

__all__ = [
    "register_policy",
    "policy_names",
    "policy_class",
    "resolve_policy",
    "use_policy",
    "active_policy_spec",
    "PolicySpec",
]

#: Anything :func:`resolve_policy` accepts.
PolicySpec = Union[str, Type[Policy], Policy, None]

_POLICIES: dict[str, Type[Policy]] = {}
_active_spec: PolicySpec = "default"


def register_policy(cls: Type[Policy]) -> Type[Policy]:
    """Class decorator: add ``cls`` to the registry under ``cls.name``."""
    name = cls.name
    existing = _POLICIES.get(name)
    if existing is not None and existing is not cls:
        raise ValueError(
            f"policy name {name!r} already registered by {existing.__name__}"
        )
    _POLICIES[name] = cls
    return cls


def _load_builtin() -> None:
    """Import the shipped policy modules so they self-register.

    Deferred (not done at package import) because the built-ins construct
    protocol objects from :mod:`repro.hdfs` / :mod:`repro.smarth`, which
    themselves import :mod:`repro.policy` — resolving at first *use*
    breaks the cycle.
    """
    from . import default, hotspot, tuner  # noqa: F401


def policy_names() -> tuple[str, ...]:
    """Registered policy names, sorted (``default`` always present)."""
    _load_builtin()
    return tuple(sorted(_POLICIES))


def policy_class(name: str) -> Type[Policy]:
    """Look up a registered policy class by name."""
    _load_builtin()
    try:
        return _POLICIES[name]
    except KeyError:
        known = ", ".join(sorted(_POLICIES))
        raise KeyError(f"unknown policy {name!r}; known: {known}") from None


def resolve_policy(
    spec: PolicySpec, deployment: "HdfsDeployment"
) -> Policy:
    """Turn a policy spec into an instance bound to ``deployment``.

    ``None`` resolves the ambient spec installed by :func:`use_policy`
    (``"default"`` unless swapped).  An existing instance is re-bound,
    not copied — its cross-deployment state survives.
    """
    if spec is None:
        spec = _active_spec
    if isinstance(spec, Policy):
        return spec.bind(deployment)
    if isinstance(spec, str):
        return policy_class(spec)(deployment)
    if isinstance(spec, type) and issubclass(spec, Policy):
        return spec(deployment)
    raise TypeError(
        f"policy spec must be a name, Policy class or instance, got {spec!r}"
    )


def active_policy_spec() -> PolicySpec:
    """The ambient spec deployments resolve when given ``policy=None``."""
    return _active_spec


@contextmanager
def use_policy(spec: PolicySpec) -> Iterator[PolicySpec]:
    """Temporarily install ``spec`` as the ambient policy.

    Every deployment built inside the ``with`` block without an explicit
    ``policy=`` runs under ``spec`` — experiments, workloads and chaos
    campaigns included.
    """
    global _active_spec
    previous = _active_spec
    _active_spec = spec if spec is not None else "default"
    try:
        yield _active_spec
    finally:
        _active_spec = previous
