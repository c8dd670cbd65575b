//! Shared query services and the server-backed endpoint adapter.
//!
//! A [`LocalEndpoint`](crate::LocalEndpoint) is a *dataset* — it owns a graph
//! and answers queries with per-query limits. A [`QueryService`] is a
//! *serving tier* on top: one shared, concurrently used query processor with
//! service-level admission control (queue depth, per-tenant budgets). The
//! [`ServiceEndpoint`] adapter lets any such service stand wherever an
//! [`Endpoint`] is expected — in particular inside a
//! [`FederatedProcessor`](crate::FederatedProcessor), so one Sapphire server
//! can federate over other Sapphire servers.

use std::sync::Arc;

use sapphire_sparql::{Query, QueryResult};

use crate::endpoint::{Endpoint, EndpointError};

/// Typed failures of a shared query service. Mirrors [`EndpointError`] where
/// the semantics coincide and adds the service-level overload rejection.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ServiceError {
    /// Admission control turned the request away: the in-flight limit and
    /// wait queue were both full.
    Overloaded {
        /// Requests in flight when this one arrived.
        in_flight: usize,
        /// Requests already waiting in the admission queue.
        queue_depth: usize,
    },
    /// The request was admitted but exceeded a work budget while executing.
    Timeout {
        /// Work units consumed before the service gave up.
        work_used: u64,
    },
    /// The request waited in the service's admission queue past its
    /// deadline without ever getting a slot — saturation, not a work limit.
    QueueTimeout {
        /// How long the request waited, in milliseconds.
        waited_ms: u64,
    },
    /// A tenant exhausted its work budget for the current accounting window.
    QuotaExhausted {
        /// The tenant whose budget ran out.
        tenant: String,
        /// Work units charged so far in this window.
        used: u64,
        /// The tenant's per-window budget.
        budget: u64,
    },
    /// The backend endpoint (or federation) failed.
    Backend(EndpointError),
}

impl std::fmt::Display for ServiceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServiceError::Overloaded {
                in_flight,
                queue_depth,
            } => write!(
                f,
                "service overloaded ({in_flight} in flight, {queue_depth} queued)"
            ),
            ServiceError::Timeout { work_used } => {
                write!(f, "service timeout after {work_used} work units")
            }
            ServiceError::QueueTimeout { waited_ms } => {
                write!(f, "service admission queue timeout after {waited_ms}ms")
            }
            ServiceError::QuotaExhausted {
                tenant,
                used,
                budget,
            } => {
                write!(
                    f,
                    "tenant {tenant:?} exhausted budget ({used}/{budget} work units)"
                )
            }
            ServiceError::Backend(e) => write!(f, "backend error: {e}"),
        }
    }
}

impl std::error::Error for ServiceError {}

impl From<ServiceError> for EndpointError {
    fn from(e: ServiceError) -> Self {
        match e {
            ServiceError::Overloaded { in_flight, .. } => EndpointError::Overloaded { in_flight },
            ServiceError::Timeout { work_used } => EndpointError::Timeout { work_used },
            // A queue-deadline miss is a saturation signal; the service no
            // longer knows its in-flight count at conversion time.
            ServiceError::QueueTimeout { .. } => EndpointError::Overloaded { in_flight: 0 },
            ServiceError::QuotaExhausted { used, .. } => EndpointError::Rejected {
                estimated_cost: used,
            },
            ServiceError::Backend(e) => e,
        }
    }
}

/// Canonical fingerprint of a parsed query, shared across serving hops.
///
/// Two queries with the same fingerprint are the *same request* to a shared
/// query service: a coalescing service (the Sapphire server single-flights
/// identical in-flight queries on exactly this key) deduplicates them, and
/// every federation hop that forwards a query unchanged forwards its
/// fingerprint unchanged too — so a burst of identical queries fanning out
/// through a multi-tier topology collapses to one backend execution per tier.
/// The rendering is the AST's structural debug form, which is stable and
/// canonical for parsed queries (prefixes are expanded at parse time).
pub fn query_fingerprint(query: &Query) -> String {
    format!("svc\u{1}{query:?}")
}

/// A shared, admission-controlled query processor.
///
/// Implementations must be usable from many threads at once; the bound is
/// `Send + Sync` for the same reason [`Endpoint`]'s is.
pub trait QueryService: Send + Sync {
    /// The service's registered name.
    fn service_name(&self) -> &str;

    /// Execute a query on behalf of `tenant`, subject to the service's
    /// admission control and budgets.
    fn execute_query(&self, tenant: &str, query: &Query) -> Result<QueryResult, ServiceError>;
}

/// Adapter presenting a [`QueryService`] as an [`Endpoint`] for one tenant.
///
/// This is how a Sapphire server becomes a *backend* of another Sapphire
/// deployment: wrap the server in a `ServiceEndpoint` and register it with a
/// `FederatedProcessor`. Service-level rejections surface as the typed
/// [`EndpointError::Overloaded`] / [`EndpointError::Timeout`] variants, so
/// federation code can distinguish overload from data errors.
///
/// The adapter is deliberately stateless beyond its `Arc` and tenant name —
/// and therefore [`Clone`] — so one downstream service can stand behind any
/// number of federation workers. Identical queries forwarded concurrently
/// through *different* clones still deduplicate at the service: the
/// downstream server single-flights them by [`query_fingerprint`], so a
/// burst of users asking the same question at an edge tier costs the
/// warehouse tier one execution, not one per clone.
pub struct ServiceEndpoint<S: QueryService> {
    service: Arc<S>,
    tenant: String,
}

impl<S: QueryService> Clone for ServiceEndpoint<S> {
    fn clone(&self) -> Self {
        ServiceEndpoint {
            service: Arc::clone(&self.service),
            tenant: self.tenant.clone(),
        }
    }
}

impl<S: QueryService> ServiceEndpoint<S> {
    /// Present `service` as an endpoint whose queries are billed to `tenant`.
    pub fn new(service: Arc<S>, tenant: impl Into<String>) -> Self {
        ServiceEndpoint {
            service,
            tenant: tenant.into(),
        }
    }

    /// The wrapped service.
    pub fn service(&self) -> &Arc<S> {
        &self.service
    }
}

impl<S: QueryService> Endpoint for ServiceEndpoint<S> {
    fn name(&self) -> &str {
        self.service.service_name()
    }

    fn execute_parsed(&self, query: &Query) -> Result<QueryResult, EndpointError> {
        self.service
            .execute_query(&self.tenant, query)
            .map_err(EndpointError::from)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::endpoint::{EndpointLimits, LocalEndpoint};
    use sapphire_sparql::parse_query;

    /// A service that alternates between answering and shedding load.
    struct FlakyService {
        inner: LocalEndpoint,
        admitted: std::sync::Mutex<bool>,
    }

    impl QueryService for FlakyService {
        fn service_name(&self) -> &str {
            "flaky"
        }

        fn execute_query(&self, _tenant: &str, query: &Query) -> Result<QueryResult, ServiceError> {
            let mut admit = self.admitted.lock().unwrap();
            *admit = !*admit;
            if *admit {
                self.inner
                    .execute_parsed(query)
                    .map_err(ServiceError::Backend)
            } else {
                Err(ServiceError::Overloaded {
                    in_flight: 7,
                    queue_depth: 3,
                })
            }
        }
    }

    #[test]
    fn service_endpoint_maps_typed_errors() {
        let g = sapphire_rdf::turtle::parse("res:A a dbo:Thing .").unwrap();
        let service = Arc::new(FlakyService {
            inner: LocalEndpoint::new("inner", g, EndpointLimits::warehouse()),
            admitted: std::sync::Mutex::new(false),
        });
        let ep = ServiceEndpoint::new(service, "tenant-1");
        let q = parse_query("SELECT ?s WHERE { ?s a dbo:Thing }").unwrap();
        assert!(matches!(ep.execute_parsed(&q), Ok(QueryResult::Solutions(s)) if s.len() == 1));
        assert_eq!(
            ep.execute_parsed(&q).unwrap_err(),
            EndpointError::Overloaded { in_flight: 7 }
        );
        assert_eq!(ep.name(), "flaky");
    }

    #[test]
    fn query_fingerprints_identify_identical_queries() {
        let a = parse_query("SELECT ?s WHERE { ?s a dbo:Thing }").unwrap();
        let b = parse_query("SELECT ?s WHERE { ?s a dbo:Thing }").unwrap();
        let c = parse_query("SELECT ?s WHERE { ?s a dbo:Person }").unwrap();
        assert_eq!(query_fingerprint(&a), query_fingerprint(&b));
        assert_ne!(query_fingerprint(&a), query_fingerprint(&c));
    }

    #[test]
    fn service_endpoint_clones_share_the_service() {
        let g = sapphire_rdf::turtle::parse("res:A a dbo:Thing .").unwrap();
        let service = Arc::new(FlakyService {
            inner: LocalEndpoint::new("inner", g, EndpointLimits::warehouse()),
            admitted: std::sync::Mutex::new(false),
        });
        let ep = ServiceEndpoint::new(service.clone(), "tenant-1");
        let ep2 = ep.clone();
        assert_eq!(Arc::strong_count(&service), 3, "one service, two adapters");
        let q = parse_query("SELECT ?s WHERE { ?s a dbo:Thing }").unwrap();
        // The flaky flip-flop state lives in the shared service, not the
        // clone: alternating outcomes interleave across both adapters.
        assert!(ep.execute_parsed(&q).is_ok());
        assert!(ep2.execute_parsed(&q).is_err());
    }

    #[test]
    fn service_error_conversions() {
        let e: EndpointError = ServiceError::Timeout { work_used: 42 }.into();
        assert_eq!(e, EndpointError::Timeout { work_used: 42 });
        let e: EndpointError = ServiceError::QueueTimeout { waited_ms: 250 }.into();
        assert_eq!(
            e,
            EndpointError::Overloaded { in_flight: 0 },
            "queue-deadline miss converts to overload, never to fabricated work units"
        );
        let e: EndpointError = ServiceError::QuotaExhausted {
            tenant: "t".into(),
            used: 9,
            budget: 8,
        }
        .into();
        assert_eq!(e, EndpointError::Rejected { estimated_cost: 9 });
        let display = ServiceError::Overloaded {
            in_flight: 1,
            queue_depth: 2,
        }
        .to_string();
        assert!(display.contains("overloaded"));
    }
}
