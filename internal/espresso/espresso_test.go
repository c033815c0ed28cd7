package espresso

import (
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"
	"time"

	"datainfra/internal/databus"
	"datainfra/internal/schema"
)

const albumSchema = `{
	"name": "Album",
	"fields": [
		{"name": "artist", "type": "string", "index": "exact"},
		{"name": "title", "type": "string"},
		{"name": "year", "type": "long"}
	]
}`

const songSchema = `{
	"name": "Song",
	"fields": [
		{"name": "title", "type": "string"},
		{"name": "lyrics", "type": "string", "index": "text"},
		{"name": "durationSec", "type": "long"}
	]
}`

// musicDB builds the paper's Music database: Artist (singleton), Album
// (artist/album) and Song (artist/album/song).
func musicDB(t testing.TB, partitions, replicas int) *Database {
	t.Helper()
	db, err := NewDatabase(
		DatabaseSchema{Name: "Music", NumPartitions: partitions, Replicas: replicas},
		[]*TableSchema{
			{Name: "Artist", KeyParts: []string{"artist"}},
			{Name: "Album", KeyParts: []string{"artist", "album"}},
			{Name: "Song", KeyParts: []string{"artist", "album", "song"}},
		})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := db.SetDocumentSchema("Artist", schema.MustParse(`{
		"name":"Artist","fields":[{"name":"name","type":"string"},{"name":"genre","type":"string","index":"exact"}]}`)); err != nil {
		t.Fatal(err)
	}
	if _, err := db.SetDocumentSchema("Album", schema.MustParse(albumSchema)); err != nil {
		t.Fatal(err)
	}
	if _, err := db.SetDocumentSchema("Song", schema.MustParse(songSchema)); err != nil {
		t.Fatal(err)
	}
	return db
}

func newBinlog() *databus.LogSource { return databus.NewLogSource() }

// soloNode returns a single node mastering every partition (no helix).
func soloNode(t testing.TB, db *Database) *Node {
	t.Helper()
	n := NewNode("solo", db, newBinlog())
	for p := 0; p < db.Schema.NumPartitions; p++ {
		n.SetRole(p, true)
	}
	return n
}

func TestParseURI(t *testing.T) {
	db, key, err := ParseURI("/Music/Song/Etta_James/Gold/At_Last")
	if err != nil || db != "Music" || key.Table != "Song" ||
		!reflect.DeepEqual(key.Parts, []string{"Etta_James", "Gold", "At_Last"}) {
		t.Fatalf("ParseURI = (%s, %+v, %v)", db, key, err)
	}
	for _, bad := range []string{"/", "/Music", "/Music/Artist", "//x/y"} {
		if _, _, err := ParseURI(bad); err == nil {
			t.Errorf("ParseURI(%q) accepted", bad)
		}
	}
}

func TestPutGetDocument(t *testing.T) {
	db := musicDB(t, 4, 1)
	n := soloNode(t, db)
	key := DocKey{Table: "Album", Parts: []string{"Akon", "Trouble"}}
	row, err := n.Put(key, map[string]any{"artist": "Akon", "title": "Trouble", "year": int64(2004)}, "")
	if err != nil {
		t.Fatal(err)
	}
	if row.Etag == "" || row.SchemaVersion != 1 {
		t.Fatalf("row = %+v", row)
	}
	got, err := n.Get(key)
	if err != nil {
		t.Fatal(err)
	}
	doc, err := n.Document(got)
	if err != nil {
		t.Fatal(err)
	}
	if doc["title"] != "Trouble" || doc["year"] != int64(2004) {
		t.Fatalf("doc = %v", doc)
	}
	// missing document
	if _, err := n.Get(DocKey{Table: "Album", Parts: []string{"Akon", "Nope"}}); !errors.Is(err, ErrNoSuchDocument) {
		t.Fatalf("missing get err = %v", err)
	}
	// wrong arity
	if _, err := n.Get(DocKey{Table: "Album", Parts: []string{"Akon"}}); !errors.Is(err, ErrKeyArity) {
		t.Fatalf("arity err = %v", err)
	}
	// schema validation on write
	if _, err := n.Put(key, map[string]any{"bogusField": 1}, ""); err == nil {
		t.Fatal("invalid doc accepted")
	}
}

func TestEtagConditionalUpdate(t *testing.T) {
	db := musicDB(t, 4, 1)
	n := soloNode(t, db)
	key := DocKey{Table: "Artist", Parts: []string{"Coolio"}}
	row, err := n.Put(key, map[string]any{"name": "Coolio", "genre": "rap"}, "")
	if err != nil {
		t.Fatal(err)
	}
	// stale etag rejected
	_, err = n.Put(key, map[string]any{"name": "Coolio", "genre": "hiphop"}, "deadbeef")
	if !errors.Is(err, ErrEtagMismatch) {
		t.Fatalf("stale etag err = %v", err)
	}
	// correct etag accepted
	if _, err := n.Put(key, map[string]any{"name": "Coolio", "genre": "hiphop"}, row.Etag); err != nil {
		t.Fatal(err)
	}
	got, _ := n.Get(key)
	doc, _ := n.Document(got)
	if doc["genre"] != "hiphop" {
		t.Fatalf("doc = %v", doc)
	}
}

func TestDeleteDocument(t *testing.T) {
	db := musicDB(t, 4, 1)
	n := soloNode(t, db)
	key := DocKey{Table: "Artist", Parts: []string{"Gone"}}
	if _, err := n.Put(key, map[string]any{"name": "Gone", "genre": "x"}, ""); err != nil {
		t.Fatal(err)
	}
	if err := n.Delete(key, ""); err != nil {
		t.Fatal(err)
	}
	if _, err := n.Get(key); !errors.Is(err, ErrNoSuchDocument) {
		t.Fatalf("get after delete err = %v", err)
	}
	if err := n.Delete(key, ""); !errors.Is(err, ErrNoSuchDocument) {
		t.Fatalf("double delete err = %v", err)
	}
}

func TestCollectionListing(t *testing.T) {
	db := musicDB(t, 4, 1)
	n := soloNode(t, db)
	albums := []string{"Lovers", "A_Closer_Look", "Face2Face"}
	for i, a := range albums {
		key := DocKey{Table: "Album", Parts: []string{"Babyface", a}}
		if _, err := n.Put(key, map[string]any{"artist": "Babyface", "title": a, "year": int64(1986 + i)}, ""); err != nil {
			t.Fatal(err)
		}
	}
	// unrelated artist in (possibly) the same partition
	n.Put(DocKey{Table: "Album", Parts: []string{"Coolio", "Steal_Hear"}},
		map[string]any{"artist": "Coolio", "title": "Steal Hear", "year": int64(2008)}, "")

	rows, err := n.List("Album", "Babyface")
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("collection has %d rows", len(rows))
	}
	for _, row := range rows {
		if row.Key.ResourceID() != "Babyface" {
			t.Fatalf("leaked %v", row.Key)
		}
	}
}

func TestMultiTableTransaction(t *testing.T) {
	db := musicDB(t, 4, 1)
	n := soloNode(t, db)
	// post a new album and each of its songs in a single transaction (§IV.A)
	writes := []Write{
		{Key: DocKey{Table: "Album", Parts: []string{"Elton_John", "Greatest_Hits"}},
			Doc: map[string]any{"artist": "Elton John", "title": "Greatest Hits", "year": int64(1974)}},
		{Key: DocKey{Table: "Song", Parts: []string{"Elton_John", "Greatest_Hits", "Rocket_Man"}},
			Doc: map[string]any{"title": "Rocket Man", "lyrics": "and I think it's gonna be a long long time", "durationSec": int64(281)}},
		{Key: DocKey{Table: "Song", Parts: []string{"Elton_John", "Greatest_Hits", "Daniel"}},
			Doc: map[string]any{"title": "Daniel", "lyrics": "Daniel is travelling tonight on a plane", "durationSec": int64(223)}},
	}
	rows, err := n.Commit(writes)
	if err != nil || len(rows) != 3 {
		t.Fatalf("Commit = (%d, %v)", len(rows), err)
	}
	songs, _ := n.List("Song", "Elton_John")
	if len(songs) != 2 {
		t.Fatalf("songs = %d", len(songs))
	}
}

func TestTransactionAtomicityOnFailure(t *testing.T) {
	db := musicDB(t, 4, 1)
	n := soloNode(t, db)
	writes := []Write{
		{Key: DocKey{Table: "Album", Parts: []string{"X", "Good"}},
			Doc: map[string]any{"artist": "X", "title": "Good", "year": int64(2000)}},
		{Key: DocKey{Table: "Song", Parts: []string{"X", "Good", "Bad"}},
			Doc: map[string]any{"notAField": true}}, // schema violation
	}
	if _, err := n.Commit(writes); err == nil {
		t.Fatal("invalid transaction committed")
	}
	// nothing from the failed txn is visible
	if _, err := n.Get(DocKey{Table: "Album", Parts: []string{"X", "Good"}}); !errors.Is(err, ErrNoSuchDocument) {
		t.Fatalf("partial commit leaked: %v", err)
	}
	// and the binlog got nothing
	if n.binlog.Len() != 0 {
		t.Fatalf("failed txn wrote %d binlog entries", n.binlog.Len())
	}
}

func TestTransactionRejectsMixedResources(t *testing.T) {
	db := musicDB(t, 4, 1)
	n := soloNode(t, db)
	writes := []Write{
		{Key: DocKey{Table: "Artist", Parts: []string{"A"}}, Doc: map[string]any{"name": "A", "genre": "g"}},
		{Key: DocKey{Table: "Artist", Parts: []string{"B"}}, Doc: map[string]any{"name": "B", "genre": "g"}},
	}
	if _, err := n.Commit(writes); !errors.Is(err, ErrTxnMixedKeys) {
		t.Fatalf("mixed txn err = %v", err)
	}
}

func TestSecondaryIndexQueries(t *testing.T) {
	db := musicDB(t, 4, 1)
	n := soloNode(t, db)
	put := func(album, song, lyrics string) {
		key := DocKey{Table: "Song", Parts: []string{"The_Beatles", album, song}}
		if _, err := n.Put(key, map[string]any{"title": song, "lyrics": lyrics, "durationSec": int64(180)}, ""); err != nil {
			t.Fatal(err)
		}
	}
	put("Sgt_Pepper", "Lucy_in_the_Sky_with_Diamonds", "Picture yourself in a boat on a river, Lucy in the sky with diamonds")
	put("Magical_Mystery_Tour", "I_am_the_Walrus", "I am he as you are he; see how they run like Lucy in the sky")
	put("Abbey_Road", "Here_Comes_the_Sun", "Here comes the sun and I say it's all right")

	// the paper's example query
	rows, err := n.Query("Song", "The_Beatles", "lyrics", "Lucy in the sky")
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("query matched %d songs, want 2", len(rows))
	}
	// updates re-index
	key := DocKey{Table: "Song", Parts: []string{"The_Beatles", "Abbey_Road", "Here_Comes_the_Sun"}}
	if _, err := n.Put(key, map[string]any{"title": "Here Comes the Sun", "lyrics": "Lucy in the sky rewrite", "durationSec": int64(185)}, ""); err != nil {
		t.Fatal(err)
	}
	rows, _ = n.Query("Song", "The_Beatles", "lyrics", "Lucy in the sky")
	if len(rows) != 3 {
		t.Fatalf("after update query matched %d", len(rows))
	}
	// deletes un-index
	if err := n.Delete(key, ""); err != nil {
		t.Fatal(err)
	}
	rows, _ = n.Query("Song", "The_Beatles", "lyrics", "Lucy in the sky")
	if len(rows) != 2 {
		t.Fatalf("after delete query matched %d", len(rows))
	}
	// unindexed field rejected
	if _, err := n.Query("Song", "The_Beatles", "title", "x"); err == nil {
		t.Fatal("query on unindexed field accepted")
	}
	// exact index on another table
	n.Put(DocKey{Table: "Album", Parts: []string{"The_Beatles", "Abbey_Road"}},
		map[string]any{"artist": "The Beatles", "title": "Abbey Road", "year": int64(1969)}, "")
	rows, err = n.Query("Album", "The_Beatles", "artist", "The Beatles")
	if err != nil || len(rows) != 1 {
		t.Fatalf("exact query = (%d, %v)", len(rows), err)
	}
}

func TestSchemaEvolutionOnLiveData(t *testing.T) {
	db := musicDB(t, 4, 1)
	n := soloNode(t, db)
	key := DocKey{Table: "Album", Parts: []string{"Cher", "Greatest_Hits"}}
	if _, err := n.Put(key, map[string]any{"artist": "Cher", "title": "Greatest Hits", "year": int64(1999)}, ""); err != nil {
		t.Fatal(err)
	}
	// evolve: add a label field with a default
	v, err := db.SetDocumentSchema("Album", schema.MustParse(`{
		"name":"Album","fields":[
			{"name":"artist","type":"string","index":"exact"},
			{"name":"title","type":"string"},
			{"name":"year","type":"long"},
			{"name":"label","type":"string","default":"unknown"}
		]}`))
	if err != nil || v != 2 {
		t.Fatalf("evolve = (%d, %v)", v, err)
	}
	// old document (v1) reads through the new schema with the default
	row, _ := n.Get(key)
	if row.SchemaVersion != 1 {
		t.Fatalf("stored version = %d", row.SchemaVersion)
	}
	doc, err := n.Document(row)
	if err != nil {
		t.Fatal(err)
	}
	if doc["label"] != "unknown" {
		t.Fatalf("evolved doc = %v", doc)
	}
	// new writes store v2
	row2, err := n.Put(key, map[string]any{"artist": "Cher", "title": "Greatest Hits", "year": int64(1999), "label": "WEA"}, "")
	if err != nil || row2.SchemaVersion != 2 {
		t.Fatalf("v2 write = (%+v, %v)", row2, err)
	}
	// incompatible evolution rejected
	if _, err := db.SetDocumentSchema("Album", schema.MustParse(`{
		"name":"Album","fields":[{"name":"artist","type":"long"}]}`)); err == nil {
		t.Fatal("incompatible evolution accepted")
	}
}

func TestWriteToSlaveRejected(t *testing.T) {
	db := musicDB(t, 2, 1)
	n := NewNode("n", db, newBinlog())
	n.SetRole(0, false)
	n.SetRole(1, false)
	key := DocKey{Table: "Artist", Parts: []string{"X"}}
	if _, err := n.Put(key, map[string]any{"name": "X", "genre": "g"}, ""); !errors.Is(err, ErrNotMaster) {
		t.Fatalf("slave write err = %v", err)
	}
}

func TestTableIV1Layout(t *testing.T) {
	// Golden test for the storage layout of Table IV.1.
	want := strings.Join([]string{
		"<key columns from table schema>",
		"timestamp bigint(20)",
		"etag varchar(10)",
		"val blob",
		"schema_version smallint(6)",
	}, "\n")
	if got := strings.Join(TableIV1Columns, "\n"); got != want {
		t.Fatalf("Table IV.1 layout drifted:\n%s", got)
	}
	// And the Row struct actually carries those fields.
	row := Row{Key: DocKey{Table: "Song", Parts: []string{"a", "b", "c"}},
		Timestamp: 1, Etag: "abcd1234", Val: []byte{1}, SchemaVersion: 1}
	if row.Timestamp == 0 || row.Etag == "" || row.Val == nil || row.SchemaVersion == 0 {
		t.Fatal("Row missing Table IV.1 fields")
	}
}

// --- cluster-level tests ----------------------------------------------------

func newTestCluster(t testing.TB, partitions, replicas, nodes int) *Cluster {
	t.Helper()
	db := musicDB(t, partitions, replicas)
	c, err := NewCluster(db)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	for i := 0; i < nodes; i++ {
		if _, err := c.AddNode(fmt.Sprintf("node-%d", i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.WaitForMasters(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	return c
}

func clusterPut(t testing.TB, c *Cluster, key DocKey, doc map[string]any) *Row {
	t.Helper()
	var row *Row
	deadline := time.Now().Add(5 * time.Second)
	for {
		node, err := c.Route(key.ResourceID())
		if err == nil {
			row, err = node.Put(key, doc, "")
			if err == nil {
				return row
			}
			if !errors.Is(err, ErrNotMaster) {
				t.Fatal(err)
			}
		}
		if time.Now().After(deadline) {
			t.Fatalf("clusterPut %v never found a master", key)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func TestClusterRoutedWrites(t *testing.T) {
	c := newTestCluster(t, 8, 2, 3)
	for i := 0; i < 40; i++ {
		key := DocKey{Table: "Artist", Parts: []string{fmt.Sprintf("artist-%d", i)}}
		clusterPut(t, c, key, map[string]any{"name": fmt.Sprintf("artist-%d", i), "genre": "rock"})
	}
	for i := 0; i < 40; i++ {
		key := DocKey{Table: "Artist", Parts: []string{fmt.Sprintf("artist-%d", i)}}
		node, err := c.Route(key.ResourceID())
		if err != nil {
			t.Fatal(err)
		}
		row, err := node.Get(key)
		if err != nil {
			t.Fatal(err)
		}
		doc, _ := node.Document(row)
		if doc["name"] != fmt.Sprintf("artist-%d", i) {
			t.Fatalf("doc = %v", doc)
		}
	}
}

func TestTimelineConsistencyMasterSlave(t *testing.T) {
	c := newTestCluster(t, 4, 2, 2)
	// write a stream of updates
	for i := 0; i < 30; i++ {
		key := DocKey{Table: "Artist", Parts: []string{fmt.Sprintf("a%d", i%5)}}
		clusterPut(t, c, key, map[string]any{"name": fmt.Sprintf("v%d", i), "genre": "g"})
	}
	// wait for slaves to catch up, then compare per-partition state
	deadline := time.Now().Add(10 * time.Second)
	for p := 0; p < 4; p++ {
		master, err := c.MasterOf(p)
		if err != nil {
			t.Fatal(err)
		}
		var slave *Member
		c.mu.Lock()
		for id, m := range c.members {
			if id != master.Node.ID {
				states := m.participant.States(c.DB.Schema.Name)
				if _, has := states[p]; has {
					slave = m
				}
			}
		}
		c.mu.Unlock()
		if slave == nil {
			continue // replica count 2 with 2 nodes: other node must hold it
		}
		for {
			mRows := master.Node.PartitionRows(p)
			sRows := slave.Node.PartitionRows(p)
			if rowsEqual(mRows, sRows) {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("partition %d: slave never converged (%d vs %d rows)", p, len(sRows), len(mRows))
			}
			time.Sleep(5 * time.Millisecond)
		}
	}
}

func rowsEqual(a, b map[string]Row) bool {
	if len(a) != len(b) {
		return false
	}
	for k, av := range a {
		bv, ok := b[k]
		if !ok || av.Etag != bv.Etag || string(av.Val) != string(bv.Val) {
			return false
		}
	}
	return true
}

func TestE16FailoverPromotesSlave(t *testing.T) {
	c := newTestCluster(t, 4, 2, 3)
	// seed data
	keys := make([]DocKey, 20)
	for i := range keys {
		keys[i] = DocKey{Table: "Artist", Parts: []string{fmt.Sprintf("f%d", i)}}
		clusterPut(t, c, keys[i], map[string]any{"name": fmt.Sprintf("f%d", i), "genre": "g"})
	}
	// kill the master of partition 0
	victim, err := c.MasterOf(0)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.KillNode(victim.Node.ID); err != nil {
		t.Fatal(err)
	}
	// a new master must emerge and have ALL the data (caught up via relay)
	deadline := time.Now().Add(10 * time.Second)
	var newMaster *Member
	for {
		m, err := c.MasterOf(0)
		if err == nil && m.Node.ID != victim.Node.ID && m.Node.IsMaster(0) {
			newMaster = m
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("no new master emerged for partition 0")
		}
		time.Sleep(5 * time.Millisecond)
	}
	for _, key := range keys {
		if c.DB.PartitionOf(key.ResourceID()) != 0 {
			continue
		}
		row, err := newMaster.Node.Get(key)
		if err != nil {
			t.Fatalf("data lost in failover: %s: %v", key, err)
		}
		doc, _ := newMaster.Node.Document(row)
		if doc["name"] != key.Parts[0] {
			t.Fatalf("corrupt after failover: %v", doc)
		}
	}
	// and the cluster accepts writes for partition 0 again
	probe := DocKey{Table: "Artist", Parts: []string{"post-failover"}}
	clusterPut(t, c, probe, map[string]any{"name": "post", "genre": "g"})
}

func TestElasticExpansionNewNodeServes(t *testing.T) {
	c := newTestCluster(t, 4, 2, 2)
	for i := 0; i < 20; i++ {
		key := DocKey{Table: "Artist", Parts: []string{fmt.Sprintf("e%d", i)}}
		clusterPut(t, c, key, map[string]any{"name": fmt.Sprintf("e%d", i), "genre": "g"})
	}
	// add a third node: helix should eventually hand it partitions
	m, err := c.AddNode("node-new")
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		states := m.participant.States(c.DB.Schema.Name)
		if len(states) > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("new node never received partitions")
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func TestFigIV3PartitionLayout(t *testing.T) {
	// The partition distribution of Figure IV.3: every partition has exactly
	// one master and replicas-1 slaves, spread across nodes.
	c := newTestCluster(t, 6, 2, 3)
	layout := func() (masters map[int]string, slaveCount map[int]int) {
		masters, slaveCount = map[int]string{}, map[int]int{}
		c.mu.Lock()
		defer c.mu.Unlock()
		for id, m := range c.members {
			states := m.participant.States(c.DB.Schema.Name)
			for p, st := range states {
				switch st {
				case "MASTER":
					if prev, dup := masters[p]; dup {
						t.Fatalf("partition %d has two masters: %s and %s", p, prev, id)
					}
					masters[p] = id
				case "SLAVE":
					slaveCount[p]++
				}
			}
		}
		return masters, slaveCount
	}
	// Let slaves finish converging: a partition handed to a later node keeps
	// its old slave until that node's transitions land.
	deadline := time.Now().Add(10 * time.Second)
	for {
		masters, slaveCount := layout()
		settled := len(masters) == 6
		for p := 0; p < 6; p++ {
			settled = settled && slaveCount[p] == 1
		}
		if settled || time.Now().After(deadline) {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	masters, slaveCount := layout()
	if len(masters) != 6 {
		t.Fatalf("only %d/6 partitions mastered", len(masters))
	}
	for p := 0; p < 6; p++ {
		if slaveCount[p] != 1 {
			t.Fatalf("partition %d has %d slaves, want 1", p, slaveCount[p])
		}
	}
	// masters spread: no node masters everything
	byNode := map[string]int{}
	for _, id := range masters {
		byNode[id]++
	}
	if len(byNode) < 2 {
		t.Fatalf("all masters on one node: %v", byNode)
	}
}
