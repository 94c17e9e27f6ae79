//! Output checks and failure accounting.
//!
//! Paper-mode logits (`ProtocolConfig::paper`) are not bit-exact: local
//! share truncation is off by one unit in the last place depending on the
//! shares, and a rare share-conversion wrap moves one logit far away. So
//! a response is checked for its shape only, and its top-1 class is
//! compared with the plaintext `QuantModel::forward` top-1, which feeds
//! `top1_agree` rather than the failure count.
//!
//! Failed operations are exactly: transport or protocol errors, sheds,
//! timeouts, and responses of the wrong shape.

/// What the load generator observed for one timed session.
#[derive(Debug, Clone)]
pub struct SessionRecord {
    /// Dataset indices of the images the session sent, in order.
    pub images: Vec<usize>,
    /// Whether the session went to the traced server.
    pub traced: bool,
    /// Dial to checked logits.
    pub latency_ms: f64,
    /// Dial time of the client link.
    pub connect_ms: f64,
    /// Wall time of `run_client`.
    pub run_ms: f64,
    /// `ClientRun::online_ns` in milliseconds.
    pub online_ms: f64,
    /// `ClientRun::payload_bytes`.
    pub payload_bytes: u64,
    /// `ClientRun::telemetry.retransmits`.
    pub retransmits: u64,
    /// `ClientRun::telemetry.naks_sent`.
    pub naks_sent: u64,
    /// Messages and bytes over the shaped link, both ways (WAN only).
    pub link_msgs: u64,
    /// See `link_msgs`.
    pub link_bytes: u64,
    /// Server-assigned stream ID (0 when the session failed).
    pub stream: u64,
    /// Secure top-1 class per image; empty when the session failed.
    pub top1: Vec<usize>,
    /// Why the session counts as failed, if it does.
    pub error: Option<String>,
}

impl SessionRecord {
    /// A record for a session that failed before producing logits.
    #[must_use]
    pub fn failed(images: Vec<usize>, traced: bool, error: String) -> SessionRecord {
        SessionRecord {
            images,
            traced,
            latency_ms: 0.0,
            connect_ms: 0.0,
            run_ms: 0.0,
            online_ms: 0.0,
            payload_bytes: 0,
            retransmits: 0,
            naks_sent: 0,
            link_msgs: 0,
            link_bytes: 0,
            stream: 0,
            top1: Vec::new(),
            error: Some(error),
        }
    }

    /// Whether the session produced a well-formed response.
    #[must_use]
    pub fn ok(&self) -> bool {
        self.error.is_none()
    }
}

/// Checks one response's shape — one logit vector of `classes` entries
/// per image sent — and returns the top-1 class of each vector.
///
/// # Errors
///
/// A description of the first shape violation.
pub fn check_response(
    logits: &[Vec<i64>],
    images: usize,
    classes: usize,
) -> Result<Vec<usize>, String> {
    if logits.len() != images {
        return Err(format!(
            "wrong output shape: {} logit vectors for {images} images",
            logits.len()
        ));
    }
    logits
        .iter()
        .enumerate()
        .map(|(i, v)| {
            if v.len() == classes {
                Ok(argmax(v))
            } else {
                Err(format!("wrong output shape: image {i} has {} logits, not {classes}", v.len()))
            }
        })
        .collect()
}

/// Index of the largest value; the lowest index wins a tie.
#[must_use]
pub fn argmax(v: &[i64]) -> usize {
    let mut best = 0;
    for (i, x) in v.iter().enumerate() {
        if *x > v[best] {
            best = i;
        }
    }
    best
}

/// Success and agreement counts over a run's sessions.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Tally {
    /// Sessions attempted.
    pub attempted: u64,
    /// Sessions that failed (see the module docs).
    pub failed: u64,
    /// Images answered by successful sessions.
    pub images: u64,
    /// Of those, images whose secure top-1 equals the plaintext top-1.
    pub agree: u64,
}

impl Tally {
    /// Counts `records`; `reference_top1` maps a dataset index to the
    /// plaintext top-1 class.
    pub fn of(records: &[SessionRecord], mut reference_top1: impl FnMut(usize) -> usize) -> Tally {
        let mut t = Tally::default();
        for r in records {
            t.attempted += 1;
            if !r.ok() {
                t.failed += 1;
                continue;
            }
            for (&image, &top1) in r.images.iter().zip(&r.top1) {
                t.images += 1;
                if reference_top1(image) == top1 {
                    t.agree += 1;
                }
            }
        }
        t
    }

    /// Share of answered images whose secure top-1 matches plaintext.
    #[must_use]
    pub fn top1_agree(&self) -> f64 {
        #[allow(clippy::cast_precision_loss)] // image counts are small
        if self.images == 0 {
            0.0
        } else {
            self.agree as f64 / self.images as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A successful record for `images` whose logits are `logits`,
    /// passed through the same check the load generator applies.
    fn record(images: Vec<usize>, logits: &[Vec<i64>]) -> SessionRecord {
        match check_response(logits, images.len(), 3) {
            Ok(top1) => SessionRecord {
                top1,
                error: None,
                ..SessionRecord::failed(images, false, String::new())
            },
            Err(e) => SessionRecord::failed(images, false, e),
        }
    }

    /// Plaintext top-1 of dataset image `i` in these tests.
    fn reference(i: usize) -> usize {
        i % 3
    }

    #[test]
    fn well_formed_sessions_all_agree() {
        let records = vec![
            record(vec![0, 1], &[vec![9, 1, 2], vec![0, 5, 1]]),
            record(vec![2], &[vec![-4, -3, 7]]),
        ];
        let t = Tally::of(&records, reference);
        assert_eq!(t, Tally { attempted: 2, failed: 0, images: 3, agree: 3 });
        assert!((t.top1_agree() - 1.0).abs() < f64::EPSILON);
    }

    #[test]
    fn wrong_length_logit_vector_counts_as_failed() {
        let short = record(vec![0, 1], &[vec![9, 1, 2], vec![0, 5]]);
        assert!(short.error.as_deref().is_some_and(|e| e.contains("wrong output shape")));
        let missing = record(vec![0, 1], &[vec![9, 1, 2]]);
        assert!(!missing.ok());
        let t = Tally::of(&[short, missing, record(vec![2], &[vec![0, 0, 1]])], reference);
        assert_eq!((t.attempted, t.failed, t.images), (3, 2, 1));
    }

    #[test]
    fn dropped_session_counts_as_failed() {
        let dropped =
            SessionRecord::failed(vec![4], false, "transport failure: disconnected".into());
        let t = Tally::of(&[dropped, record(vec![0], &[vec![1, 0, 0]])], reference);
        assert_eq!((t.attempted, t.failed, t.images, t.agree), (2, 1, 1, 1));
    }

    #[test]
    fn flipped_top1_lowers_agreement() {
        let agreeing = [record(vec![0, 1], &[vec![9, 1, 2], vec![0, 5, 1]])];
        let flipped = [record(vec![0, 1], &[vec![9, 1, 2], vec![6, 5, 1]])];
        let before = Tally::of(&agreeing, reference).top1_agree();
        let after = Tally::of(&flipped, reference);
        assert_eq!(after.failed, 0, "a flipped top-1 is not a failed operation");
        assert!(after.top1_agree() < before, "{} !< {before}", after.top1_agree());
    }

    #[test]
    fn argmax_breaks_ties_toward_the_lowest_index() {
        assert_eq!(argmax(&[3, 7, 7, 1]), 1);
        assert_eq!(argmax(&[-5]), 0);
    }
}
