//! The fixed load and the timed set-up of each workload: generate, add
//! noise, build and chase the UWSDT, create the durable session or the
//! store, spawn the server, connect, prepare the six plans.

use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use maybms::{AnyBackend, Durable, Prepared, Session};
use ws_census::{all_queries, census_dependencies, CensusScenario, RELATION_NAME};
use ws_relational::Database;
use ws_server::{Client, ConcurrentStore, RemotePlan, ServerHandle};
use ws_storage::{DirVfs, MemVfs, SyncPolicy, Vfs};

use crate::ops::Mix;

/// Tuples of the census relation (× 50 attributes).
pub const TUPLES: usize = 10_000;
/// Or-set density: 0.1 %, the paper's densest.
pub const DENSITY: f64 = 0.001;
/// Seed of the census data and its noise: one data set for every `--seed`,
/// which drives the op order and the update values only.  The served
/// latencies step with the size of an answer (a 256-row batch more is a frame
/// more, and a frame more can be a 40 ms Nagle/delayed-ACK stall more), and
/// Q4 and Q6 sit on such a step: their answers have 232–294 and 1534–1607
/// rows depending on the data seed.  Runs on different data were therefore
/// runs of different workloads (`ops_per_s` of `served_read` 18.5–22.4 across
/// six data seeds, 18.2–19.4 on one), which no bound could tell from a
/// regression.
pub const DATA_SEED: u64 = 1;
/// Connections of the served workloads, one harness thread each.
pub const CONNECTIONS: usize = 2;
/// How the served stores reach stable storage.
pub const POLICY: SyncPolicy = SyncPolicy::GroupCommit {
    max_batch: 64,
    max_wait: Duration::from_millis(1),
};

/// The five workloads; later issues cite them by name.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    EmbeddedUwsdt,
    EmbeddedOneworld,
    ServedRead,
    ServedWrite,
    ServedMixed,
}

impl Workload {
    pub const ALL: [Workload; 5] = [
        Workload::EmbeddedUwsdt,
        Workload::EmbeddedOneworld,
        Workload::ServedRead,
        Workload::ServedWrite,
        Workload::ServedMixed,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::EmbeddedUwsdt => "embedded_uwsdt",
            Workload::EmbeddedOneworld => "embedded_oneworld",
            Workload::ServedRead => "served_read",
            Workload::ServedWrite => "served_write",
            Workload::ServedMixed => "served_mixed",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    pub fn served(self) -> bool {
        !matches!(self, Workload::EmbeddedUwsdt | Workload::EmbeddedOneworld)
    }

    /// Blocking callers of the closed loop, one harness thread each.
    pub fn callers(self) -> usize {
        if self.served() {
            CONNECTIONS
        } else {
            1
        }
    }

    pub fn mix(self) -> Mix {
        match self {
            Workload::ServedWrite => Mix::Write,
            Workload::ServedMixed => Mix::Mixed,
            _ => Mix::Read,
        }
    }

    pub fn writes(self) -> bool {
        self.mix() != Mix::Read
    }
}

/// The generated data of one run with the cost of each build stage.
pub struct Data {
    pub backend: AnyBackend,
    pub generate_ms: f64,
    pub build_ms: f64,
    pub chase_ms: f64,
    pub components: usize,
    pub template_rows: usize,
}

pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Generate the workload's data.  `embedded_oneworld` serves the base
/// relation as one world and needs no UWSDT; `with_uwsdt` builds and chases
/// one regardless, so a traced run can report those stages.
pub fn build_data(workload: Workload, with_uwsdt: bool) -> Result<Data, String> {
    let scenario = CensusScenario::new(TUPLES, DENSITY, DATA_SEED);
    let t = Instant::now();
    let base = scenario.base_relation();
    let generate_ms = ms(t.elapsed());
    let one_world = workload == Workload::EmbeddedOneworld;
    let mut data = Data {
        backend: AnyBackend::from(Database::new()),
        generate_ms,
        build_ms: 0.0,
        chase_ms: 0.0,
        components: 0,
        template_rows: 0,
    };
    if !one_world || with_uwsdt {
        let noise = ws_census::add_noise(&base, DENSITY, DATA_SEED.wrapping_add(1));
        let t = Instant::now();
        let mut uwsdt = ws_uwsdt::from_or_relation(&base, &noise).map_err(|e| e.to_string())?;
        data.build_ms = ms(t.elapsed());
        let t = Instant::now();
        ws_uwsdt::chase::chase(&mut uwsdt, &census_dependencies()).map_err(|e| e.to_string())?;
        data.chase_ms = ms(t.elapsed());
        let stats = ws_uwsdt::stats_for(&uwsdt, RELATION_NAME).map_err(|e| e.to_string())?;
        data.components = stats.components;
        data.template_rows = stats.template_rows;
        data.backend = AnyBackend::from(uwsdt);
    }
    if one_world {
        let mut db = Database::new();
        db.insert_relation(base);
        data.backend = AnyBackend::from(db);
    }
    Ok(data)
}

/// One connection of a served workload with its six registered plans.
pub struct Conn {
    pub client: Client,
    pub plans: Vec<RemotePlan>,
}

/// The running system a workload drives.
pub enum Env {
    Embedded {
        session: Box<Session<Durable<AnyBackend>>>,
        plans: Vec<Prepared>,
    },
    Served {
        store: ConcurrentStore<AnyBackend>,
        server: ServerHandle,
        conns: Vec<Conn>,
    },
}

/// Everything the benchmark writes goes under here, below the working
/// directory.
pub fn output_dir() -> PathBuf {
    Path::new("target").join("bench_e2e")
}

/// A directory of the workload's own: `store` holds its durable medium,
/// `replay` and `probe` the media of a traced run's replay and layer probe.
pub fn work_dir(workload: Workload, part: &str) -> PathBuf {
    output_dir().join(workload.name()).join(part)
}

/// A durable session over `backend` on an in-memory medium: the kind of
/// session the embedded workloads run in, for the harness's own local
/// sessions (reference answers, replay, probe).  The kind matters: `Durable`
/// does not forward lineage extraction, so a durable session answers
/// confidences by the native exact tier, a plain one by the lineage tiers,
/// and the two differ in cost and in the last bit of their sums.
pub fn durable_in_memory(backend: AnyBackend) -> Result<Session<Durable<AnyBackend>>, String> {
    Session::create_durable_on(Box::new(MemVfs::new()), backend).map_err(|e| e.to_string())
}

/// A fresh, empty directory medium.
pub fn fresh_medium(dir: &Path) -> Result<Box<dyn Vfs>, String> {
    if dir.exists() {
        std::fs::remove_dir_all(dir).map_err(|e| format!("clearing {}: {e}", dir.display()))?;
    }
    open_medium(dir)
}

pub fn open_medium(dir: &Path) -> Result<Box<dyn Vfs>, String> {
    Ok(Box::new(DirVfs::open(dir).map_err(|e| e.to_string())?))
}

/// Bring the system up over `backend` on a fresh medium in `dir`.
pub fn open_env(workload: Workload, backend: AnyBackend, dir: &Path) -> Result<Env, String> {
    let vfs = fresh_medium(dir)?;
    if !workload.served() {
        let mut session = Session::create_durable_on(vfs, backend).map_err(|e| e.to_string())?;
        let plans = all_queries()
            .into_iter()
            .map(|(_, q)| session.prepare(q).map_err(|e| e.to_string()))
            .collect::<Result<_, _>>()?;
        return Ok(Env::Embedded {
            session: Box::new(session),
            plans,
        });
    }
    let store = ConcurrentStore::create(vfs, backend, POLICY).map_err(|e| e.to_string())?;
    let server = ws_server::spawn("127.0.0.1:0", store.clone()).map_err(|e| e.to_string())?;
    let mut conns = Vec::new();
    for _ in 0..CONNECTIONS {
        let mut client = Client::connect(server.addr()).map_err(|e| e.to_string())?;
        let plans = all_queries()
            .into_iter()
            .map(|(_, q)| client.prepare(q).map_err(|e| e.to_string()))
            .collect::<Result<_, _>>()?;
        conns.push(Conn { client, plans });
    }
    Ok(Env::Served {
        store,
        server,
        conns,
    })
}

/// Close every connection, stop the server and close the store or session,
/// surfacing the first error.
pub fn tear_down(env: Env) -> Result<(), String> {
    match env {
        Env::Embedded { session, .. } => session.close().map_err(|e| e.to_string()),
        Env::Served {
            store,
            server,
            conns,
        } => {
            for conn in conns {
                conn.client.close().map_err(|e| e.to_string())?;
            }
            server.shutdown().map_err(|e| e.to_string())?;
            store.close().map(|_| ()).map_err(|e| e.to_string())
        }
    }
}

/// A system that is up, with what bringing it up cost.
pub struct SetUp {
    pub env: Env,
    pub data: Data,
    pub elapsed: Duration,
}

/// The timed set-up.  `data.backend` is the harness's own copy (for the
/// reference answers and the layer probe); taking it is not timed.
pub fn set_up(workload: Workload, with_uwsdt: bool) -> Result<SetUp, String> {
    let t = Instant::now();
    let data = build_data(workload, with_uwsdt)?;
    let mut elapsed = t.elapsed();
    let served = data.backend.clone();
    let t = Instant::now();
    let env = open_env(workload, served, &work_dir(workload, "store"))?;
    elapsed += t.elapsed();
    Ok(SetUp { env, data, elapsed })
}

#[cfg(test)]
mod tests {
    use super::*;
    use maybms::Persist;

    #[test]
    fn every_run_builds_the_same_data() {
        let build = || build_data(Workload::ServedRead, false).unwrap();
        let (a, b) = (build(), build());
        assert_eq!(a.backend.encode_to_vec(), b.backend.encode_to_vec());
        assert_eq!(
            (a.components, a.template_rows),
            (b.components, b.template_rows)
        );
        assert_eq!(a.template_rows, TUPLES);
    }
}
