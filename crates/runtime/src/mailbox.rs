//! The one queue behind every hand-off in this crate: `Cluster` node
//! inboxes, lock-space shard inboxes and grant acks. It relies on:
//!
//! * *One parker*: at most one consumer parks at a time (a shard thread
//!   on its inbox, a client on its ack; a `Cluster` drain never parks),
//!   so `parked` is a `bool`, and a push nobody waits on makes no futex
//!   call.
//! * *Per-sender FIFO*: items pop in push order, as the paper assumes.
//! * *A reply never blocks*: a push never waits, so a drain that holds a
//!   core lock can answer its waiter's [`Ack`].
//! * *A dead consumer fails its senders*: [`Mailbox::close`] refuses
//!   pushes and drops the queue; a dropped input's ack closes its own
//!   mailbox, so its waiter sees [`LockError::ClusterDown`]. A shard
//!   thread closes its inbox when it ends, by panic too.
//!
//! Only a push, a pop or a clear runs under the mutex (a clear may close
//! acks), so a poisoned one is recovered with [`PoisonError::into_inner`].

use std::collections::VecDeque;
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::time::Instant;

use crate::service::{LockError, Reply};

#[derive(Debug)]
struct State<T> {
    queue: VecDeque<T>,
    closed: bool,
    parked: bool,
}

/// A FIFO queue with any number of producers and one consumer at a time.
#[derive(Debug)]
pub(crate) struct Mailbox<T> {
    state: Mutex<State<T>>,
    ready: Condvar,
}

impl<T> Mailbox<T> {
    pub(crate) const fn new() -> Self {
        Mailbox {
            state: Mutex::new(State {
                queue: VecDeque::new(),
                closed: false,
                parked: false,
            }),
            ready: Condvar::new(),
        }
    }

    fn state(&self) -> MutexGuard<'_, State<T>> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Queues `item`, or refuses it once the mailbox is closed.
    pub(crate) fn push(&self, item: T) -> Result<(), LockError> {
        let mut state = self.state();
        if state.closed {
            return Err(LockError::ClusterDown);
        }
        state.queue.push_back(item);
        let parked = state.parked;
        drop(state);
        if parked {
            self.ready.notify_one();
        }
        Ok(())
    }

    pub(crate) fn try_pop(&self) -> Option<T> {
        self.state().queue.pop_front()
    }

    pub(crate) fn is_empty(&self) -> bool {
        self.state().queue.is_empty()
    }

    /// The oldest item, parking until there is one. On an empty queue it
    /// fails with `ClusterDown` if the mailbox is closed, else with
    /// `Timeout` once `deadline` has passed.
    pub(crate) fn pop(&self, deadline: Option<Instant>) -> Result<T, LockError> {
        let idle = |state: &mut State<T>| state.queue.is_empty() && !state.closed;
        let mut state = self.state();
        state.parked = true;
        state = match deadline {
            None => self
                .ready
                .wait_while(state, idle)
                .unwrap_or_else(PoisonError::into_inner),
            Some(at) => {
                let left = at.saturating_duration_since(Instant::now());
                let waited = self.ready.wait_timeout_while(state, left, idle);
                waited.unwrap_or_else(PoisonError::into_inner).0
            }
        };
        state.parked = false;
        match state.queue.pop_front() {
            Some(item) => Ok(item),
            None if state.closed => Err(LockError::ClusterDown),
            None => Err(LockError::Timeout),
        }
    }

    /// Refuses every later push and drops the queued items.
    pub(crate) fn close(&self) {
        let mut state = self.state();
        state.closed = true;
        state.queue.clear();
        self.ready.notify_one();
    }
}

/// The node's end of one acquisition's reply mailbox. Dropping it
/// unsent closes the mailbox, so the client's pop fails with
/// `ClusterDown`.
#[derive(Debug)]
pub(crate) struct Ack(Option<Arc<Mailbox<Reply>>>);

impl Ack {
    pub(crate) fn send(mut self, reply: Reply) {
        if let Some(mailbox) = self.0.take() {
            let _ = mailbox.push(reply); // only the ack closes it
        }
    }
}

impl Drop for Ack {
    fn drop(&mut self) {
        if let Some(mailbox) = self.0.take() {
            mailbox.close();
        }
    }
}

/// A reply mailbox: the [`Ack`] travels with the input, and the client
/// pops the reply from the other end.
pub(crate) fn ack() -> (Ack, Arc<Mailbox<Reply>>) {
    let mailbox = Arc::new(Mailbox::new());
    (Ack(Some(Arc::clone(&mailbox))), mailbox)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn queued_items_pop_in_order_before_cluster_down() {
        let mailbox = Mailbox::new();
        for i in 0..3 {
            mailbox.push(i).unwrap();
        }
        assert_eq!(mailbox.try_pop(), Some(0));
        assert_eq!(mailbox.pop(None), Ok(1));
        assert_eq!(mailbox.pop(None), Ok(2));
        mailbox.push(3).unwrap();
        mailbox.close();
        // Closing drops what was still queued.
        assert_eq!(mailbox.pop(None), Err(LockError::ClusterDown));
        assert!(mailbox.is_empty());
    }

    #[test]
    fn a_push_after_close_is_refused() {
        let mailbox = Mailbox::new();
        mailbox.close();
        assert_eq!(mailbox.push(7), Err(LockError::ClusterDown));
        assert_eq!(mailbox.try_pop(), None);
    }

    #[test]
    fn a_pop_with_a_deadline_times_out_on_an_empty_mailbox() {
        let mailbox = Mailbox::<u32>::new();
        let deadline = Instant::now() + Duration::from_millis(20);
        assert_eq!(mailbox.pop(Some(deadline)), Err(LockError::Timeout));
        assert!(Instant::now() >= deadline);
        // A passed deadline still returns what is queued.
        mailbox.push(4).unwrap();
        assert_eq!(mailbox.pop(Some(deadline)), Ok(4));
    }

    #[test]
    fn a_parked_consumer_wakes_for_a_push_and_for_a_close() {
        let mailbox = Arc::new(Mailbox::new());
        for (close, expected) in [(false, Ok(1)), (true, Err(LockError::ClusterDown))] {
            let deadline = Instant::now() + Duration::from_secs(5);
            let consumer = {
                let mailbox = Arc::clone(&mailbox);
                std::thread::spawn(move || (mailbox.pop(Some(deadline)), Instant::now()))
            };
            // Most likely parked by now; if not, the answer is the same.
            std::thread::sleep(Duration::from_millis(20));
            if close {
                mailbox.close();
            } else {
                mailbox.push(1).unwrap();
            }
            let (popped, at) = consumer.join().unwrap();
            assert_eq!(popped, expected);
            assert!(
                at < deadline,
                "woken by the push or close, not the deadline"
            );
        }
    }

    #[test]
    fn an_ack_dropped_unsent_yields_cluster_down() {
        let (ack, reply) = ack();
        let waiter = std::thread::spawn(move || reply.pop(None));
        std::thread::sleep(Duration::from_millis(20));
        drop(ack);
        assert_eq!(waiter.join().unwrap(), Err(LockError::ClusterDown));
    }

    #[test]
    fn a_sent_ack_delivers_its_reply() {
        let (ack, reply) = ack();
        ack.send(Reply::Granted);
        let deadline = Instant::now() + Duration::from_secs(5);
        assert_eq!(reply.pop(Some(deadline)), Ok(Reply::Granted));
        // The ack is spent, not dropped unsent: the mailbox stays open.
        assert_eq!(reply.pop(Some(Instant::now())), Err(LockError::Timeout));
    }
}
