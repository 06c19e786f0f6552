//! Per-operator query profiles: the tree `explain_analyze` renders.
//!
//! The executor is recursive and single-threaded, so profiling is a
//! thread-local stack: [`begin`] installs a collector, [`enter`] pushes a node and returns
//! a token, [`OpToken::finish`] pops it — filling in rows, batches and the
//! measured latency — and attaches it to its parent, and [`take`] uninstalls
//! the collector and returns the finished roots.  When no collector is
//! installed every hook is a cheap thread-local check returning `None`, so
//! instrumented code paths cost nothing unless a profile was requested.

use std::cell::RefCell;
use std::fmt;
use std::time::Instant;

/// One operator's measurements in a profile tree.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ProfileNode {
    /// The operator (`"select"`, `"project"`, `"hash-join"`, …).
    pub op: String,
    /// Operator detail: the predicate, attribute list, relation name, ….
    pub detail: String,
    /// Rows flowing into the operator (sum of child outputs when derived).
    pub rows_in: u64,
    /// Rows the operator produced (0 when the backend cannot count its
    /// representation cheaply).
    pub rows_out: u64,
    /// Column batches the operator processed.
    pub batches: u64,
    /// Wall-clock nanoseconds spent in the operator, children included.
    pub elapsed_ns: u64,
    /// Which execution path ran: `"columnar"`, `"row"` or `"view"`.
    pub path: &'static str,
    /// Child operators, in evaluation order.
    pub children: Vec<ProfileNode>,
}

impl ProfileNode {
    /// A fresh node with only its identity filled in.
    pub fn new(op: impl Into<String>, detail: impl Into<String>) -> ProfileNode {
        ProfileNode {
            op: op.into(),
            detail: detail.into(),
            ..ProfileNode::default()
        }
    }

    /// Derive each node's `rows_in` from its children's `rows_out` wherever
    /// it was left unset (leaves keep `rows_in = rows_out`).
    pub fn derive_rows_in(&mut self) {
        for child in &mut self.children {
            child.derive_rows_in();
        }
        if self.rows_in == 0 {
            self.rows_in = if self.children.is_empty() {
                self.rows_out
            } else {
                self.children.iter().map(|c| c.rows_out).sum()
            };
        }
    }

    /// Total node count of the tree (the root included).
    pub fn size(&self) -> usize {
        1 + self.children.iter().map(ProfileNode::size).sum::<usize>()
    }

    fn render_into(&self, out: &mut String, prefix: &str, last: bool, root: bool) {
        let branch = if root {
            ""
        } else if last {
            "└─ "
        } else {
            "├─ "
        };
        let detail = if self.detail.is_empty() {
            String::new()
        } else {
            format!("({})", self.detail)
        };
        out.push_str(&format!(
            "{prefix}{branch}{}{detail} [{}] in={} out={} batches={} {:.3}ms\n",
            self.op,
            self.path,
            self.rows_in,
            self.rows_out,
            self.batches,
            self.elapsed_ns as f64 / 1e6,
        ));
        let child_prefix = if root {
            String::new()
        } else {
            format!("{prefix}{}", if last { "   " } else { "│  " })
        };
        for (i, child) in self.children.iter().enumerate() {
            child.render_into(out, &child_prefix, i + 1 == self.children.len(), false);
        }
    }

    /// The tree rendered as indented text (what `explain_analyze` prints).
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.render_into(&mut out, "", true, true);
        out
    }
}

impl fmt::Display for ProfileNode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.render())
    }
}

/// The in-flight collector: a stack of open operators plus finished roots.
#[derive(Debug, Default)]
struct Collector {
    stack: Vec<(ProfileNode, Instant)>,
    roots: Vec<ProfileNode>,
}

impl Collector {
    /// Pop the top operator and attach it to its parent (or the roots).
    fn pop_into_parent(&mut self) {
        if let Some((node, started)) = self.stack.pop() {
            let mut node = node;
            if node.elapsed_ns == 0 {
                node.elapsed_ns = u64::try_from(started.elapsed().as_nanos()).unwrap_or(u64::MAX);
            }
            match self.stack.last_mut() {
                Some((parent, _)) => parent.children.push(node),
                None => self.roots.push(node),
            }
        }
    }
}

thread_local! {
    static COLLECTOR: RefCell<Option<Collector>> = const { RefCell::new(None) };
}

/// Install a fresh collector on this thread (replacing any prior one).
pub fn begin() {
    COLLECTOR.with(|slot| *slot.borrow_mut() = Some(Collector::default()));
}

/// Whether a collector is installed on this thread.
pub fn active() -> bool {
    COLLECTOR.with(|slot| slot.borrow().is_some())
}

/// Uninstall the collector and return the finished roots (operators still
/// open — an error unwound past them — are closed as-is).
pub fn take() -> Vec<ProfileNode> {
    COLLECTOR.with(|slot| {
        let Some(mut collector) = slot.borrow_mut().take() else {
            return Vec::new();
        };
        while !collector.stack.is_empty() {
            collector.pop_into_parent();
        }
        collector.roots
    })
}

/// The handle [`enter`] returns: finishing it closes the operator.
#[derive(Debug)]
#[must_use = "finish the token to close the profile node"]
pub struct OpToken {
    /// Stack depth at entry, used to re-balance after error unwinds.
    depth: usize,
}

/// Open an operator node.  Returns `None` (and never calls `detail`) when no
/// collector is installed on this thread.
pub fn enter(op: &str, detail: impl FnOnce() -> String) -> Option<OpToken> {
    COLLECTOR.with(|slot| {
        let mut slot = slot.borrow_mut();
        let collector = slot.as_mut()?;
        collector
            .stack
            .push((ProfileNode::new(op, detail()), Instant::now()));
        Some(OpToken {
            depth: collector.stack.len(),
        })
    })
}

impl OpToken {
    /// Close the operator: record its measurements and attach it to the
    /// parent.  Children abandoned by an error unwind are folded in first.
    pub fn finish(self, rows_out: u64, batches: u64, path: &'static str) {
        COLLECTOR.with(|slot| {
            let mut slot = slot.borrow_mut();
            let Some(collector) = slot.as_mut() else {
                return;
            };
            while collector.stack.len() > self.depth {
                collector.pop_into_parent();
            }
            if let Some((node, started)) = collector.stack.last_mut() {
                node.rows_out = rows_out;
                node.batches = batches;
                node.path = path;
                node.elapsed_ns = u64::try_from(started.elapsed().as_nanos()).unwrap_or(u64::MAX);
            }
            collector.pop_into_parent();
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hooks_are_inert_without_a_collector() {
        assert!(!active());
        assert!(enter("select", || unreachable!("detail must stay lazy")).is_none());
        assert!(take().is_empty());
    }

    #[test]
    fn nesting_builds_a_tree() {
        begin();
        let outer = enter("project", || "A, B".into()).unwrap();
        let inner = enter("select", || "A = 1".into()).unwrap();
        inner.finish(10, 1, "columnar");
        outer.finish(4, 1, "columnar");
        let mut roots = take();
        assert_eq!(roots.len(), 1);
        let root = &mut roots[0];
        root.derive_rows_in();
        assert_eq!(root.op, "project");
        assert_eq!(root.rows_out, 4);
        assert_eq!(root.children.len(), 1);
        assert_eq!(root.children[0].op, "select");
        assert_eq!(root.children[0].rows_out, 10);
        assert_eq!(root.size(), 2);
        let text = root.render();
        assert!(text.contains("project(A, B) [columnar] in=10 out=4"));
        assert!(text.contains("└─ select(A = 1)"));
    }

    #[test]
    fn derive_rows_in_sums_children() {
        begin();
        let union = enter("union", String::new).unwrap();
        enter("rel", || "R".into()).unwrap().finish(3, 1, "row");
        enter("rel", || "S".into()).unwrap().finish(2, 1, "row");
        union.finish(5, 1, "row");
        let mut root = take().remove(0);
        root.derive_rows_in();
        assert_eq!(root.rows_in, 5);
        assert_eq!(root.children[0].rows_in, 3);
    }

    #[test]
    fn error_unwinds_rebalance_the_stack() {
        begin();
        let outer = enter("product", String::new).unwrap();
        // An inner operator whose token was dropped by an unwind.
        let _abandoned = enter("select", String::new);
        outer.finish(0, 0, "row");
        let roots = take();
        assert_eq!(roots.len(), 1);
        assert_eq!(roots[0].children.len(), 1);
        assert_eq!(roots[0].children[0].op, "select");
    }
}
