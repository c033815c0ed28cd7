package espresso

import (
	"fmt"
	"testing"
)

// BenchmarkClusterRoute measures the router's per-request partition-to-master
// lookup (§IV.B Router) on a converged 3-node, 8-partition, 2-replica
// cluster: the Helix external-view read that Cluster.Route pays once per GET
// and once per PUT.
func BenchmarkClusterRoute(b *testing.B) {
	c := newTestCluster(b, 8, 2, 3)
	ids := make([]string, 64)
	for i := range ids {
		ids[i] = fmt.Sprintf("Artist%d", i)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.Route(ids[i&63]); err != nil {
			b.Fatal(err)
		}
	}
}
