package kafka

import "datainfra/internal/metrics"

// Process-wide instruments for the Kafka hot paths (documented in
// OPERATIONS.md, checked by cmd/metriclint). Brokers count requests and
// bytes through the log; producers and consumers count message flow; the
// group consumer and replica fetcher expose lag, the operational signal the
// paper's audit pipeline (§V.C) exists to watch. Offsets in this Kafka
// generation are byte positions in the partition log, so lag is measured in
// bytes.
var (
	mProduceRequests = metrics.RegisterCounter("kafka_produce_requests_total",
		"produce requests handled by brokers")
	mProduceBytes = metrics.RegisterCounter("kafka_produce_bytes_total",
		"message-set bytes appended to broker logs")
	mFetchRequests = metrics.RegisterCounter("kafka_fetch_requests_total",
		"fetch requests handled by brokers")
	mFetchBytes = metrics.RegisterCounter("kafka_fetch_bytes_total",
		"raw log bytes returned to fetchers")
	mProducerMessages = metrics.RegisterCounter("kafka_producer_messages_total",
		"messages accepted by producers (batched, not yet necessarily shipped)")
	mProducerBytes = metrics.RegisterCounter("kafka_producer_wire_bytes_total",
		"batch bytes shipped to brokers (after optional compression)")
	mConsumerMessages = metrics.RegisterCounter("kafka_consumer_messages_total",
		"messages decoded by simple consumers (includes group fetchers)")
	mGroupRebalances = metrics.RegisterCounter("kafka_group_rebalances_total",
		"consumer-group rebalances executed")
	mGroupLag = metrics.RegisterGaugeVec("kafka_group_lag_bytes",
		"byte distance between the partition head and a group's committed position",
		"partition")
	mReplicaMessages = metrics.RegisterCounter("kafka_replica_messages_total",
		"messages republished by the intra-cluster replica fetcher")
	mReplicaLag = metrics.RegisterGaugeVec("kafka_replica_lag_bytes",
		"durable log end minus the slowest in-sync follower's fetch position, on partitions led by this process",
		"partition")
	mISRSize = metrics.RegisterGaugeVec("kafka_isr_size_nodes",
		"replicas currently in sync on partitions led by this process",
		"partition")
	mISRShrinks = metrics.RegisterCounter("kafka_isr_shrinks_total",
		"followers evicted from an in-sync replica set for lagging or dying")
	mISRExpands = metrics.RegisterCounter("kafka_isr_expands_total",
		"followers readmitted to an in-sync replica set after catching up")
	mISRAckTimeouts = metrics.RegisterCounter("kafka_isr_ack_timeouts_total",
		"produces that timed out waiting for the high watermark to cover them")
	mPartitionHW = metrics.RegisterGaugeVec("kafka_partition_hw_bytes",
		"high watermark of partitions led by this process",
		"partition")
	mMirrorMessages = metrics.RegisterCounter("kafka_mirror_messages_total",
		"messages republished into the destination cluster by MirrorMaker (includes redelivered duplicates)")
	mMirrorBytes = metrics.RegisterCounter("kafka_mirror_bytes_total",
		"message-set bytes produced into the destination cluster by MirrorMaker")
	mMirrorLag = metrics.RegisterGaugeVec("kafka_mirror_lag_bytes",
		"source log head minus the mirror's position on a partition",
		"partition")
	mMirrorCheckpoints = metrics.RegisterCounter("kafka_mirror_checkpoints_total",
		"mirror checkpoint file writes (one per mirrored batch, atomic rename)")
	mMirrorCheckpointPos = metrics.RegisterGaugeVec("kafka_mirror_checkpoint_bytes",
		"last checkpointed source offset of a mirrored partition",
		"partition")
	mMirrorErrors = metrics.RegisterCounter("kafka_mirror_errors_total",
		"source fetch, decode, destination produce and checkpoint failures absorbed by the mirror's retry loop")
)
