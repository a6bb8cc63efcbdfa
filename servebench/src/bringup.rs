//! Server bring-up, the way `hmmm serve --listen` does it: load the catalog
//! file, build the epoch-0 snapshot (λ construction + deep audit), start
//! the query server with its default configuration, and open the TCP
//! front-end on loopback.

use crate::util::ms;
use hmmm_core::BuildConfig;
use hmmm_serve::{ModelSnapshot, NetConfig, NetServer, QueryServer, ServerConfig};
use std::net::{SocketAddr, TcpStream};
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A running server and its front-end.
pub struct Live {
    pub net: NetServer,
    pub server: Arc<QueryServer>,
    pub addr: SocketAddr,
}

impl Live {
    /// Drains the front-end and joins every server thread.
    pub fn stop(self) {
        let Live { net, server, .. } = self;
        net.shutdown();
        drop(server);
    }
}

/// Where one bring-up spent its time, in milliseconds. `build_ms` and
/// `audit_ms` are split only on traced bring-ups, which call
/// `build_hmmm` and the audit gate separately instead of
/// `ModelSnapshot::build`; untraced ones leave them at zero.
#[derive(Debug, Clone, Copy, Default)]
pub struct Phases {
    pub load_ms: f64,
    pub build_ms: f64,
    pub audit_ms: f64,
    pub start_ms: f64,
    pub total: Duration,
    pub catalog_bytes: u64,
}

/// Brings a server up from the catalog file and returns once the listener
/// accepts connections.
pub fn bring_up(path: &Path, traced: bool) -> Result<(Live, Phases), String> {
    let t0 = Instant::now();
    let catalog = hmmm_storage::load_binary(path).map_err(|e| format!("loading {}: {e}", path.display()))?;
    let loaded = Instant::now();
    let mut phases = Phases {
        load_ms: ms(loaded - t0),
        ..Phases::default()
    };
    let snapshot = if traced {
        let model = hmmm_core::build_hmmm(&catalog, &BuildConfig::default()).map_err(|e| e.to_string())?;
        let built = Instant::now();
        let snapshot = ModelSnapshot::from_model(model, catalog).map_err(|e| e.to_string())?;
        phases.build_ms = ms(built - loaded);
        phases.audit_ms = ms(built.elapsed());
        snapshot
    } else {
        ModelSnapshot::build(catalog, &BuildConfig::default()).map_err(|e| e.to_string())?
    };
    let starting = Instant::now();
    let server = Arc::new(QueryServer::start(snapshot, ServerConfig::default()).map_err(|e| e.to_string())?);
    let net = NetServer::start(Arc::clone(&server), "127.0.0.1:0", NetConfig::default())
        .map_err(|e| format!("binding loopback: {e}"))?;
    let addr = net.local_addr();
    TcpStream::connect(addr).map_err(|e| format!("probing {addr}: {e}"))?;
    let total = t0.elapsed();
    phases.start_ms = ms(starting.elapsed());
    phases.total = total;
    phases.catalog_bytes = std::fs::metadata(path).map(|m| m.len()).unwrap_or(0);
    Ok((Live { net, server, addr }, phases))
}
