"""The executor seam: resolution rules and construction."""

from __future__ import annotations

import pytest

from repro.dist import ProcessPoolExecutor, SerialExecutor, resolve_executor
from repro.dist.executors import ENV_VAR
from repro.errors import ConfigurationError

#: The accepted forms every rejection names.
ACCEPTED = "None, 'serial', a worker count >= 1 .* or a SweepExecutor"


class TestResolveExecutor:
    def test_none_defers_to_historical_behavior(self, monkeypatch):
        """Unset (or empty), the environment variable means serial."""
        monkeypatch.delenv(ENV_VAR, raising=False)
        assert isinstance(resolve_executor(None), SerialExecutor)
        monkeypatch.setenv(ENV_VAR, "  ")
        assert isinstance(resolve_executor(None), SerialExecutor)

    def test_env_var_selects_a_backend(self, monkeypatch):
        monkeypatch.setenv(ENV_VAR, "serial")
        assert isinstance(resolve_executor(None), SerialExecutor)
        monkeypatch.setenv(ENV_VAR, "3")
        pool = resolve_executor(None)
        assert isinstance(pool, ProcessPoolExecutor)
        assert pool.n_workers == 3

    def test_names_resolve_case_insensitively(self):
        assert isinstance(resolve_executor("Serial"), SerialExecutor)
        assert isinstance(resolve_executor(" SERIAL "), SerialExecutor)

    def test_worker_counts_resolve_to_pools(self):
        for setting in (1, 4, "4", " 4 "):
            pool = resolve_executor(setting)
            assert isinstance(pool, ProcessPoolExecutor)
            assert pool.n_workers == int(setting)

    def test_instances_pass_through(self):
        for executor in (SerialExecutor(), ProcessPoolExecutor(2)):
            assert resolve_executor(executor) is executor

    def test_unknown_name_rejected(self):
        for setting in ("process", "workqueue", "threads", "0", "-2", "2.5"):
            with pytest.raises(ConfigurationError, match=ACCEPTED):
                resolve_executor(setting)

    def test_non_string_setting_rejected(self):
        for setting in (0, -1, True, 2.0, [2], b"2"):
            with pytest.raises(ConfigurationError, match=ACCEPTED):
                resolve_executor(setting)  # type: ignore[arg-type]

    def test_env_var_rejects_what_the_argument_rejects(self, monkeypatch):
        monkeypatch.setenv(ENV_VAR, "process")
        with pytest.raises(ConfigurationError, match=ENV_VAR):
            resolve_executor(None)


class TestConstruction:
    def test_pool_rejects_invalid_worker_count(self):
        with pytest.raises(ConfigurationError, match="n_workers"):
            ProcessPoolExecutor(0)
