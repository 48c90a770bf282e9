//! The shared batch-draining loop.
//!
//! Both lock-free consumer flavours (unbounded SPSC, bounded ring) offer the
//! same `try_drain_batch`: draining a batch observes exactly the items that
//! repeated single `try_dequeue`s would have, in the same order.  The loop
//! lives here once so a fix to the close protocol cannot drift between them.

use crate::Closed;

/// Drains up to `max` immediately available items into `out` via repeated
/// `try_dequeue`, stopping at the first empty/closed observation.  Returns
/// the number of items appended, or [`Closed`] only when the queue is closed
/// and `out` received nothing.
pub(crate) fn try_drain_with<T>(
    out: &mut Vec<T>,
    max: usize,
    mut try_dequeue: impl FnMut() -> Result<Option<T>, Closed>,
) -> Result<usize, Closed> {
    let mut drained = 0;
    while drained < max {
        match try_dequeue() {
            Ok(Some(v)) => {
                out.push(v);
                drained += 1;
            }
            Ok(None) => break,
            Err(Closed) => {
                if drained == 0 {
                    return Err(Closed);
                }
                break;
            }
        }
    }
    Ok(drained)
}
