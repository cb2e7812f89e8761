"""String-keyed backend registry: every engine is an entry, not a fork.

The registry maps names (``cpu``, ``vectorized``, ``dataflow``) to
backend factories.  :func:`repro.api.open_session` resolves through it,
so adding a new execution target — a real FPGA driver, a GPU kernel, a
remote worker pool — is one :func:`register_backend` call and zero
changes to the risk, serving or analysis layers.
"""

from __future__ import annotations

import inspect
from collections.abc import Callable

from repro.api.protocol import PricingBackend
from repro.errors import ValidationError

__all__ = [
    "register_backend",
    "unregister_backend",
    "available_backends",
    "create_backend",
]

#: Name -> factory.  Factories take the backend's ``**config`` keywords
#: and return an unbound :class:`PricingBackend`.
_FACTORIES: dict[str, Callable[..., PricingBackend]] = {}


def register_backend(
    name: str,
    factory: Callable[..., PricingBackend],
    *,
    replace: bool = False,
) -> None:
    """Register ``factory`` under ``name``.

    Parameters
    ----------
    name:
        Registry key (lower-case by convention).
    factory:
        Callable returning an unbound backend; keyword arguments are the
        backend's configuration (forwarded from ``open_session``).
    replace:
        Allow overwriting an existing entry (default: refuse, loudly).
    """
    if not name or not isinstance(name, str):
        raise ValidationError(f"backend name must be a non-empty str, got {name!r}")
    if name in _FACTORIES and not replace:
        raise ValidationError(
            f"backend {name!r} is already registered; pass replace=True to "
            "overwrite it"
        )
    _FACTORIES[name] = factory


def unregister_backend(name: str) -> None:
    """Remove ``name`` from the registry (missing names are an error)."""
    if name not in _FACTORIES:
        raise ValidationError(f"backend {name!r} is not registered")
    del _FACTORIES[name]


def available_backends() -> tuple[str, ...]:
    """Registered backend names, sorted."""
    return tuple(sorted(_FACTORIES))


def create_backend(name: str, **config) -> PricingBackend:
    """Instantiate the backend registered under ``name``.

    Parameters
    ----------
    name:
        Registry key.
    config:
        Forwarded to the factory (backend-specific: ``scenario`` and
        ``variant`` for ``dataflow``...).

    Raises
    ------
    ValidationError
        If ``name`` is not registered, or ``config`` holds a keyword the
        factory does not take.
    """
    try:
        factory = _FACTORIES[name]
    except KeyError:
        raise ValidationError(
            f"unknown pricing backend {name!r}; choose from "
            f"{list(available_backends())}"
        ) from None
    signature = inspect.signature(factory)
    try:
        signature.bind(**config)
    except TypeError as err:
        accepted = list(signature.parameters) or "no configuration keywords"
        raise ValidationError(
            f"backend {name!r} {err}; it accepts {accepted}"
        ) from None
    backend = factory(**config)
    if not isinstance(backend, PricingBackend):
        raise ValidationError(
            f"factory for backend {name!r} returned "
            f"{type(backend).__name__}, not a PricingBackend"
        )
    return backend
