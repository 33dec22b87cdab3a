"""FleetConfig: shard config derivation and the session-id stride."""

import pytest

from repro.fleet import SESSION_STRIDE, FleetConfig, shard_of_session


class TestStride:
    def test_shard_of_session_inverts_session_id_base(self):
        config = FleetConfig(shards=4)
        for index in range(4):
            base = config.shard_config(index).session_id_base
            assert base == index * SESSION_STRIDE + 1
            assert shard_of_session(base) == index
            assert shard_of_session(base + SESSION_STRIDE - 1) == index

    def test_stride_is_disjoint_across_shards(self):
        config = FleetConfig(shards=3)
        bases = [config.shard_config(i).session_id_base for i in range(3)]
        assert len(set(bases)) == 3
        assert all(b2 - b1 == SESSION_STRIDE
                   for b1, b2 in zip(bases, bases[1:]))


class TestShardConfig:
    def test_pass_throughs(self):
        config = FleetConfig(shards=2, max_sessions=5, workers=3,
                             strict_specs=True,
                             default_engines=("ltl", "atomicity"))
        sc = config.shard_config(1)
        assert sc.max_sessions == 5
        assert sc.workers == 3
        assert sc.strict_specs
        assert sc.default_engines == ("ltl", "atomicity")
        assert sc.port == 0   # every shard binds its own ephemeral port

    def test_archive_dirs_are_per_shard_with_namespace(self, tmp_path):
        config = FleetConfig(shards=2, archive_dir=str(tmp_path))
        sc0, sc1 = config.shard_config(0), config.shard_config(1)
        assert sc0.archive_dir.endswith("shard-00")
        assert sc1.archive_dir.endswith("shard-01")
        assert sc0.archive_namespace == "sh00"
        assert sc1.archive_namespace == "sh01"

    def test_no_archive_means_no_namespace(self):
        sc = FleetConfig(shards=1).shard_config(0)
        assert sc.archive_dir is None
        assert sc.archive_namespace == ""

    def test_supervised_derives_per_shard_checkpoints(self, tmp_path):
        # journaling follows checkpoint_dir; the fleet supervises shards
        config = FleetConfig(shards=2, checkpoint_dir=str(tmp_path))
        sc = config.shard_config(1)
        assert sc.checkpoint_dir.endswith("shard-01")
        assert not sc.recover
        assert config.shard_config(1, recover=True).recover

    def test_recover_needs_supervision(self, tmp_path):
        # a shard without a checkpoint_dir has no journals to rescan:
        # recover=True must not leak into its ServerConfig (which would
        # reject it)
        sc = FleetConfig(shards=1).shard_config(0, recover=True)
        assert not sc.recover

    def test_validation(self, tmp_path):
        with pytest.raises(ValueError):
            FleetConfig(shards=0)
        with pytest.raises(TypeError):
            FleetConfig(supervised=True)   # journaling follows checkpoint_dir
        with pytest.raises(ValueError):
            FleetConfig(shards=2).shard_config(2)


class TestShardBootstrap:
    def test_startup_failure_names_the_exception(self, tmp_path):
        from repro.fleet import AnalysisFleet

        blocker = tmp_path / "not-a-dir"
        blocker.write_text("")
        config = FleetConfig(shards=1, archive_dir=str(blocker))
        with pytest.raises(RuntimeError) as exc:
            AnalysisFleet(config).start()
        text = str(exc.value)
        assert "shard 0 failed to start" in text
        assert "NotADirectoryError" in text

    def test_exit_status_names_the_signal(self):
        from repro.fleet.shards import _exit_text

        assert _exit_text(-9) == "killed by SIGKILL"
        assert _exit_text(1) == "exit code 1"
