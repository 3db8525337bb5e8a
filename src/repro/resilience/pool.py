"""The spec entry point under its historical name.

Parallel runs are scheduled by the broker behind
:class:`~repro.runtime.executor.ParallelExecutor`; this module only
keeps ``repro.resilience.pool.execute_spec`` importable.
"""

from repro.runtime.spec import execute_spec

__all__ = ["execute_spec"]
