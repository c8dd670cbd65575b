//! Cluster construction: partition a dataset, stand up shard servers.
//!
//! A [`Cluster`] is the *data tier* of a sharded deployment: `shards × replicas`
//! [`SapphireServer`]s, where shard `i`'s replicas all serve the same
//! shard-local slice (data triples hashed to `i` by subject, plus the
//! replicated schema slice) through one shared shard-local
//! [`PredictiveUserModel`]. Replicas share the model `Arc` — the redundancy a
//! replica buys is *serving* capacity (its own admission gate, caches,
//! coalescers), not storage, exactly like processes of one shard behind a
//! load balancer.

use std::ops::Range;
use std::sync::Arc;

use sapphire_core::{InitMode, PredictiveUserModel, PumError, SapphireConfig};
use sapphire_endpoint::EndpointLimits;
use sapphire_rdf::{Graph, Partitioner};
use sapphire_server::{SapphireServer, ServerConfig};
use sapphire_text::Lexicon;

/// Start shard `index` of the deployment `name` over its slice `graph`:
/// one shard-local model `{name}-s{index}`, initialized with the standard
/// §5 pipeline, and one server `{name}-s{index}r{r}` over it for each `r`
/// in `replicas`. [`Cluster::build_from_shards`] starts every replica of a
/// shard here; a shard process starts its one replica here, so both serve
/// the same bytes.
pub fn start_shard(
    name: &str,
    index: usize,
    graph: Graph,
    replicas: Range<usize>,
    lexicon: &Lexicon,
    sapphire_config: &SapphireConfig,
    server_config: &ServerConfig,
) -> Result<Vec<Arc<SapphireServer>>, PumError> {
    let pum = Arc::new(PredictiveUserModel::initialize_local(
        format!("{name}-s{index}"),
        graph,
        EndpointLimits::warehouse(),
        lexicon.clone(),
        sapphire_config.clone(),
        InitMode::Federated,
    )?);
    Ok(replicas
        .map(|r| {
            let config = ServerConfig {
                name: format!("{name}-s{index}r{r}"),
                ..server_config.clone()
            };
            Arc::new(SapphireServer::new(pum.clone(), config))
        })
        .collect())
}

/// A sharded, replicated set of Sapphire servers over one partitioned
/// dataset.
pub struct Cluster {
    shards: Vec<Vec<Arc<SapphireServer>>>,
    schema_triples: usize,
    data_triples: Vec<usize>,
}

impl Cluster {
    /// Partition `graph` into `shards` subject-hashed slices and stand up
    /// `replicas` servers per shard, each shard's replicas sharing one
    /// shard-local model initialized with the standard §5 pipeline.
    ///
    /// Replica `r` of shard `s` is named `{name}-s{s}r{r}` so typed errors
    /// and service names identify the exact process they came from.
    pub fn build(
        name: &str,
        graph: &Graph,
        shards: usize,
        replicas: usize,
        lexicon: &Lexicon,
        sapphire_config: &SapphireConfig,
        server_config: &ServerConfig,
    ) -> Result<Self, PumError> {
        let partition = Partitioner::new(shards).split(graph);
        Self::build_from_shards(
            name,
            partition.shards,
            partition.schema_triples,
            partition.data_triples,
            replicas,
            lexicon,
            sapphire_config,
            server_config,
        )
    }

    /// Stand up a cluster over **pre-built** shard graphs — the bring-up path
    /// for snapshot loading, where each shard slice was partitioned earlier
    /// (possibly by another process) and arrives as a ready [`Graph`] instead
    /// of being re-split from the full dataset here. `schema_triples` /
    /// `data_triples` are the partition statistics to report (pass zeros if
    /// unknown). Each shard starts through [`start_shard`], as a shard
    /// process does, so answers are byte-identical whichever started it.
    #[allow(clippy::too_many_arguments)]
    pub fn build_from_shards(
        name: &str,
        shard_graphs: Vec<Graph>,
        schema_triples: usize,
        data_triples: Vec<usize>,
        replicas: usize,
        lexicon: &Lexicon,
        sapphire_config: &SapphireConfig,
        server_config: &ServerConfig,
    ) -> Result<Self, PumError> {
        let tiers = shard_graphs
            .into_iter()
            .enumerate()
            .map(|(i, graph)| {
                start_shard(
                    name,
                    i,
                    graph,
                    0..replicas.max(1),
                    lexicon,
                    sapphire_config,
                    server_config,
                )
            })
            .collect::<Result<_, _>>()?;
        Ok(Cluster {
            shards: tiers,
            schema_triples,
            data_triples,
        })
    }

    /// Assemble a cluster from explicit replica sets — the test hook for
    /// heterogeneous replicas (e.g. one artificially saturated replica per
    /// shard). Every inner vec must be non-empty.
    pub fn from_replicas(shards: Vec<Vec<Arc<SapphireServer>>>) -> Self {
        assert!(
            !shards.is_empty() && shards.iter().all(|r| !r.is_empty()),
            "a cluster needs at least one replica per shard"
        );
        let data = vec![0; shards.len()];
        Cluster {
            shards,
            schema_triples: 0,
            data_triples: data,
        }
    }

    /// Shard count.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Replica servers of one shard.
    pub fn replicas(&self, shard: usize) -> &[Arc<SapphireServer>] {
        &self.shards[shard]
    }

    /// All shards' replica sets.
    pub fn shards(&self) -> &[Vec<Arc<SapphireServer>>] {
        &self.shards
    }

    /// Triples replicated to every shard by the partitioner.
    pub fn schema_triples(&self) -> usize {
        self.schema_triples
    }

    /// Hash-assigned data triples per shard.
    pub fn data_triples(&self) -> &[usize] {
        &self.data_triples
    }
}
