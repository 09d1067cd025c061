"""The sweep service's result store is the executor's:
:class:`repro.experiments.store.ResultStore`.

This name stays importable because the per-layer benchmark
instrumentation resolves the store's methods as
``repro.service.store:ResultStore.*``.
"""

from repro.experiments.store import ResultStore

__all__ = ["ResultStore"]
