"""Tests for the shard map, topologies, and placement."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import ClusterConfig, build_cluster, one_region, three_city, two_region
from repro.cluster.sharding import ShardMap, stable_hash
from repro.cluster.topology import chain_topology
from repro.errors import StorageError
from repro.sim.units import ms, us
from repro.storage.catalog import ColumnDef, DistributionSpec, TableSchema


def hash_schema(name="t"):
    return TableSchema(name, [ColumnDef("k", "int"), ColumnDef("v", "int")],
                       ("k",))


class TestShardMap:
    def test_hash_distribution_is_stable(self):
        shard_map = ShardMap(6)
        shard_map.register(hash_schema())
        first = [shard_map.shard_for_value("t", key) for key in range(50)]
        second = [shard_map.shard_for_value("t", key) for key in range(50)]
        assert first == second
        assert len(set(first)) > 1  # keys actually spread

    def test_stable_hash_is_deterministic_across_runs(self):
        # Unlike builtin hash(), which is salted per process.
        assert stable_hash(42) == stable_hash(42)
        assert stable_hash("abc") != stable_hash("abd")

    @staticmethod
    def fresh_shard(value):
        # A fresh map each time: a shared one would answer from the memo,
        # which keys ``1``, ``1.0`` and ``True`` alike.
        shard_map = ShardMap(6)
        shard_map.register(hash_schema())
        return shard_map.shard_for_value("t", value)

    @settings(max_examples=200, deadline=None)
    @given(st.integers(-2**53, 2**53))
    def test_integral_float_shares_the_int_shard(self, value):
        assert self.fresh_shard(float(value)) == self.fresh_shard(value)

    def test_bool_shares_the_int_shard(self):
        assert self.fresh_shard(True) == self.fresh_shard(1)
        assert self.fresh_shard(False) == self.fresh_shard(0)

    def test_range_distribution(self):
        shard_map = ShardMap(3)
        schema = TableSchema("r", [ColumnDef("k", "int")], ("k",),
                             distribution=DistributionSpec("range", "k"))
        shard_map.register(schema, range_bounds=[(100, 0), (200, 1), (None, 2)])
        assert shard_map.shard_for_value("r", 50) == 0
        assert shard_map.shard_for_value("r", 150) == 1
        assert shard_map.shard_for_value("r", 999) == 2

    def test_range_needs_bounds(self):
        shard_map = ShardMap(3)
        schema = TableSchema("r", [ColumnDef("k", "int")], ("k",),
                             distribution=DistributionSpec("range", "k"))
        with pytest.raises(StorageError):
            shard_map.register(schema)

    def test_replicated_table_writes_every_shard(self):
        shard_map = ShardMap(4)
        schema = TableSchema("rep", [ColumnDef("k", "int")], ("k",),
                             distribution=DistributionSpec("replicated"))
        shard_map.register(schema)
        assert shard_map.write_shards("rep", {"k": 1}) == [0, 1, 2, 3]
        assert shard_map.shard_for_key("rep", (1,)) is None

    def test_missing_distribution_column_rejected(self):
        shard_map = ShardMap(2)
        shard_map.register(hash_schema())
        with pytest.raises(StorageError):
            shard_map.shard_for_row("t", {"v": 1})

    def test_key_outside_pk_distribution(self):
        shard_map = ShardMap(2)
        schema = TableSchema(
            "odd", [ColumnDef("k", "int"), ColumnDef("region", "text")],
            ("k",), distribution=DistributionSpec("hash", "region"))
        shard_map.register(schema)
        # PK lookup cannot determine the shard.
        assert shard_map.shard_for_key("odd", (1,)) is None

    def test_unregistered_table_rejected(self):
        shard_map = ShardMap(2)
        with pytest.raises(StorageError):
            shard_map.schema("nope")


class TestTopology:
    def test_three_city_latencies_match_paper(self):
        topology = three_city()
        assert topology.latency_ns("xian", "langzhong") == ms(25)
        assert topology.latency_ns("langzhong", "dongguan") == ms(35)
        assert topology.latency_ns("xian", "dongguan") == ms(55)
        # Symmetric.
        assert topology.latency_ns("dongguan", "xian") == ms(55)

    def test_one_region_is_three_servers(self):
        topology = one_region()
        assert len(topology.regions) == 3
        assert topology.latency_ns("server1", "server2") == us(50)

    def test_chain_topology_scales_with_hops(self):
        topology = chain_topology(4, hop_latency_ns=ms(10))
        assert topology.latency_ns("region0", "region1") == ms(10)
        assert topology.latency_ns("region0", "region3") == ms(30)

    def test_intra_region_latency(self):
        topology = two_region()
        assert topology.latency_ns("east", "east") == topology.intra_latency_ns


class TestPlacement:
    def test_paper_cluster_shape(self):
        """3 CNs, 6 primaries, 12 replicas; each server hosts 1 CN, 2
        primaries, 4 replicas (the paper's layout)."""
        db = build_cluster(ClusterConfig.globaldb(three_city()))
        assert len(db.cns) == 3
        assert len(db.primaries) == 6
        assert sum(len(r) for r in db.replicas.values()) == 12
        for region in ("xian", "langzhong", "dongguan"):
            primaries_here = [p for p in db.primaries if p.region == region]
            replicas_here = [r for rl in db.replicas.values() for r in rl
                             if r.region == region]
            assert len(primaries_here) == 2
            assert len(replicas_here) == 4

    def test_replicas_never_share_region_with_primary_multi_region(self):
        db = build_cluster(ClusterConfig.globaldb(three_city()))
        for shard, replica_list in db.replicas.items():
            primary_region = db.primaries[shard].region
            for replica in replica_list:
                assert replica.region != primary_region

    def test_gtm_placed_at_lowest_mean_latency_region(self):
        db = build_cluster(ClusterConfig.globaldb(three_city()))
        # Langzhong: mean((25+35)/2)=30 < Xi'an 40 < Dongguan 45.
        assert db.gtm.region == "langzhong"

    def test_explicit_gtm_region_respected(self):
        db = build_cluster(ClusterConfig.globaldb(three_city(),
                                                  gtm_region="dongguan"))
        assert db.gtm.region == "dongguan"

    def test_every_shard_has_a_node_in_every_region(self):
        """What makes local reads always possible in the paper's layout."""
        db = build_cluster(ClusterConfig.globaldb(three_city()))
        for shard in range(6):
            regions = {db.primaries[shard].region}
            regions.update(r.region for r in db.replicas[shard])
            assert regions == {"xian", "langzhong", "dongguan"}

    def test_injected_delay_spares_same_server_links(self):
        db = build_cluster(ClusterConfig.globaldb(one_region()))
        db.inject_delay_all(ms(50))
        cn = db.cns[0]
        same_server_dn = next(p for p in db.primaries
                              if p.region == cn.region)
        other_dn = next(p for p in db.primaries if p.region != cn.region)
        assert db.network.link(cn.name, same_server_dn.name).extra_delay_ns == 0
        assert db.network.link(cn.name, other_dn.name).extra_delay_ns == ms(50)
