//! The fleet under test: `repro router` in front of two `repro serve`
//! backends, each on a free loopback port. Processes are stopped with
//! SIGTERM and must drain, print their summary and exit 0; any process
//! still alive when its handle drops is killed and reaped.

use crate::http;
use crate::util::now_s;
use std::io::{BufRead, BufReader};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::{Arc, Mutex};
use std::thread::{self, JoinHandle};
use std::time::Duration;

pub struct Proc {
    pub name: String,
    pub addr: String,
    child: Option<Child>,
    lines: Arc<Mutex<Vec<String>>>,
    reader: Option<JoinHandle<()>>,
}

/// What a stopped process left behind.
pub struct Exit {
    pub name: String,
    pub code: Option<i32>,
    pub drained: bool,
    pub summary: Vec<String>,
}

impl Exit {
    pub fn clean(&self) -> bool {
        self.code == Some(0) && self.drained && !self.summary.is_empty()
    }
}

mod sig {
    extern "C" {
        fn kill(pid: i32, sig: i32) -> i32;
    }

    pub fn term(pid: u32) {
        // SAFETY: libc `kill` with a child pid this process spawned and
        // has not yet reaped, so the pid cannot have been reused.
        unsafe {
            kill(pid as i32, 15);
        }
    }
}

impl Proc {
    fn spawn(repro: &Path, name: &str, args: &[String]) -> Result<Proc, String> {
        let mut child = Command::new(repro)
            .args(args)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .map_err(|e| format!("spawn {name}: {e}"))?;
        let stdout = child.stdout.take().ok_or("no stdout pipe")?;
        let lines = Arc::new(Mutex::new(Vec::new()));
        let sink = Arc::clone(&lines);
        let reader = thread::spawn(move || {
            for line in BufReader::new(stdout).lines() {
                let Ok(line) = line else { break };
                sink.lock().unwrap_or_else(|p| p.into_inner()).push(line);
            }
        });
        let mut proc = Proc {
            name: name.to_string(),
            addr: String::new(),
            child: Some(child),
            lines,
            reader: Some(reader),
        };
        let deadline = now_s() + 30.0;
        while proc.addr.is_empty() {
            if let Some(addr) = proc.lines().iter().find_map(|l| {
                l.split_once("listening on http://")
                    .map(|(_, a)| a.trim().to_string())
            }) {
                proc.addr = addr;
                break;
            }
            if now_s() > deadline || proc.exited() {
                return Err(format!("{name} did not start listening"));
            }
            thread::sleep(Duration::from_micros(500));
        }
        Ok(proc)
    }

    fn lines(&self) -> Vec<String> {
        self.lines.lock().unwrap_or_else(|p| p.into_inner()).clone()
    }

    fn exited(&mut self) -> bool {
        self.child
            .as_mut()
            .is_none_or(|c| c.try_wait().ok().flatten().is_some())
    }

    pub fn pid(&self) -> Option<u32> {
        self.child.as_ref().map(Child::id)
    }

    /// Peak resident set (`VmHWM`) so far, MiB.
    pub fn peak_rss_mb(&self) -> f64 {
        let Some(pid) = self.pid() else { return 0.0 };
        std::fs::read_to_string(format!("/proc/{pid}/status"))
            .ok()
            .and_then(|s| {
                s.lines()
                    .find(|l| l.starts_with("VmHWM:"))
                    .and_then(|l| l.split_whitespace().nth(1))
                    .and_then(|kb| kb.parse::<f64>().ok())
            })
            .map_or(0.0, |kb| kb / 1024.0)
    }

    /// SIGTERM, then wait (up to 30 s, then SIGKILL) and collect the
    /// drain summary from stdout.
    pub fn stop(mut self) -> Exit {
        let mut code = None;
        if let Some(mut child) = self.child.take() {
            sig::term(child.id());
            let deadline = now_s() + 30.0;
            loop {
                match child.try_wait() {
                    Ok(Some(status)) => {
                        code = status.code();
                        break;
                    }
                    Ok(None) if now_s() < deadline => thread::sleep(Duration::from_millis(1)),
                    _ => {
                        let _ = child.kill();
                        let _ = child.wait();
                        break;
                    }
                }
            }
        }
        if let Some(r) = self.reader.take() {
            let _ = r.join();
        }
        let lines = self.lines();
        let at = lines.iter().position(|l| l.contains("drained cleanly"));
        Exit {
            name: self.name.clone(),
            code,
            drained: at.is_some(),
            summary: at.map_or_else(Vec::new, |i| lines[i + 1..].to_vec()),
        }
    }
}

impl Drop for Proc {
    fn drop(&mut self) {
        if let Some(mut child) = self.child.take() {
            let _ = child.kill();
            let _ = child.wait();
        }
        if let Some(r) = self.reader.take() {
            let _ = r.join();
        }
    }
}

pub struct Fleet {
    pub router: Proc,
    pub backends: Vec<Proc>,
}

impl Fleet {
    /// Starts two backends and the router and waits until all three
    /// report ready. `journal_dir` gives the backends private journals;
    /// without it they run `--no-persist`.
    pub fn start(repro: &Path, journal_dir: Option<&Path>) -> Result<Fleet, String> {
        let mut backends = Vec::new();
        for name in ["serve-a", "serve-b"] {
            let mut args: Vec<String> = vec!["serve".into(), "--addr".into(), "127.0.0.1:0".into()];
            match journal_dir {
                Some(dir) => {
                    let path: PathBuf = dir.join(format!("{name}.wal"));
                    args.push("--journal-path".into());
                    args.push(path.to_string_lossy().into_owned());
                }
                None => args.push("--no-persist".into()),
            }
            backends.push(Proc::spawn(repro, name, &args)?);
        }
        let list = backends
            .iter()
            .map(|b| b.addr.clone())
            .collect::<Vec<_>>()
            .join(",");
        let router = Proc::spawn(
            repro,
            "router",
            &[
                "router".into(),
                "--addr".into(),
                "127.0.0.1:0".into(),
                "--backends".into(),
                list,
                "--probe-ms".into(),
                "100".into(),
            ],
        )?;
        let fleet = Fleet { router, backends };
        for b in &fleet.backends {
            wait_ready(&b.addr, None)?;
        }
        wait_ready(&fleet.router.addr, Some(fleet.backends.len()))?;
        Ok(fleet)
    }

    pub fn peak_rss_mb(&self) -> f64 {
        self.backends
            .iter()
            .chain(std::iter::once(&self.router))
            .map(Proc::peak_rss_mb)
            .sum()
    }

    pub fn backend_addrs(&self) -> Vec<String> {
        self.backends.iter().map(|b| b.addr.clone()).collect()
    }

    /// Router first (it drains its relays), then the backends.
    pub fn stop(self) -> Vec<Exit> {
        let mut exits = vec![self.router.stop()];
        exits.extend(self.backends.into_iter().map(Proc::stop));
        exits
    }
}

/// Polls `/v1/readyz` until it answers 200 (and, for the router, until
/// `backends` are up).
fn wait_ready(addr: &str, backends: Option<usize>) -> Result<(), String> {
    let deadline = now_s() + 30.0;
    loop {
        if let Ok(r) = http::once(addr, "GET", "/v1/readyz", &[], b"") {
            let up = backends.is_none_or(|n| r.text().contains(&format!("\"backends_up\": {n}")));
            if r.status == 200 && up {
                return Ok(());
            }
        }
        if now_s() > deadline {
            return Err(format!("{addr} never became ready"));
        }
        thread::sleep(Duration::from_micros(500));
    }
}

/// `GET /v1/stats` as parsed JSON.
pub fn stats(addr: &str) -> Option<greencloud_api::json::Json> {
    let r = http::once(addr, "GET", "/v1/stats", &[], b"").ok()?;
    greencloud_api::json::Json::parse(r.text()).ok()
}
