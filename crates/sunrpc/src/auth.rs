//! Composable authentication layers.
//!
//! The paper: "we treat the various authentication mechanisms as a library
//! of optional protocol layers ... layering provides a natural methodology
//! for inserting or removing optional sub-pieces such as authentication.
//! Much of the complexity in the Sun RPC code concerns the optional
//! authentication component."
//!
//! An [`AuthLayer`] sits between SUN_SELECT and the transaction layer. On
//! the way down it prepends an XDR credential (flavor + opaque body); on
//! the way up it verifies and strips it, and stamps replies with a
//! verifier the client checks. Schemes plug in through [`CredScheme`]:
//! [`AuthNone`] and [`AuthUnix`] are provided.

use std::cell::OnceCell;
use std::collections::HashSet;
use std::rc::Rc;

use xkernel::prelude::*;

use crate::xdr::{XdrReader, XdrWriter};
use xrpc::protnum::rel_proto_num;

/// An authentication flavor: how credentials are produced and checked.
pub trait CredScheme {
    /// The RFC 1057 flavor number (0 = none, 1 = unix).
    fn flavor(&self) -> u32;
    /// Protocol name (keys the protocol-number table).
    fn name(&self) -> &'static str;
    /// Produces this host's credential body.
    fn make_cred(&self, ctx: &Ctx) -> Vec<u8>;
    /// Verifies a peer's credential body; an error drops the request.
    fn verify_cred(&self, body: &[u8]) -> XResult<()>;
}

/// AUTH_NONE: empty credentials, accepted from anyone.
pub struct AuthNone;

impl CredScheme for AuthNone {
    fn flavor(&self) -> u32 {
        0
    }
    fn name(&self) -> &'static str {
        "auth_none"
    }
    fn make_cred(&self, _ctx: &Ctx) -> Vec<u8> {
        Vec::new()
    }
    fn verify_cred(&self, body: &[u8]) -> XResult<()> {
        if body.is_empty() {
            Ok(())
        } else {
            Err(Reject::Corrupt("auth_none with non-empty body").into())
        }
    }
}

/// AUTH_UNIX: stamp, machine name, uid, gid (RFC 1057 §9.2), with an
/// optional allow-list of uids enforced server-side.
pub struct AuthUnix {
    /// This host's claimed uid.
    pub uid: u32,
    /// This host's claimed gid.
    pub gid: u32,
    /// This host's name.
    pub machine: String,
    /// When present, only these uids are accepted.
    pub allowed_uids: Option<HashSet<u32>>,
}

impl CredScheme for AuthUnix {
    fn flavor(&self) -> u32 {
        1
    }
    fn name(&self) -> &'static str {
        "auth_unix"
    }
    fn make_cred(&self, _ctx: &Ctx) -> Vec<u8> {
        // Four words around the machine name, and its length word.
        let mut w = XdrWriter::with_capacity(20 + self.machine.len().next_multiple_of(4));
        w.u32(0) // Stamp.
            .string(&self.machine)
            .u32(self.uid)
            .u32(self.gid)
            .u32(0); // No auxiliary gids.
        w.finish()
    }
    fn verify_cred(&self, body: &[u8]) -> XResult<()> {
        let mut r = XdrReader::new(body);
        let _stamp = r.u32()?;
        let _machine = r.string()?;
        let uid = r.u32()?;
        let _gid = r.u32()?;
        let ngids = r.u32()?;
        for _ in 0..ngids.min(16) {
            r.u32()?;
        }
        if let Some(allowed) = &self.allowed_uids {
            if !allowed.contains(&uid) {
                return Err(XError::Remote(format!("auth_unix: uid {uid} denied")));
            }
        }
        Ok(())
    }
}

fn encode_auth(flavor: u32, body: &[u8]) -> Vec<u8> {
    let mut w = XdrWriter::with_capacity(8 + body.len().next_multiple_of(4));
    w.u32(flavor).opaque(body);
    w.finish()
}

/// Reads (flavor, body, total encoded length) from the front of `msg`
/// without consuming it, then pops exactly that much.
fn pop_auth(ctx: &Ctx, msg: &mut Message) -> XResult<(u32, Vec<u8>)> {
    let mut head = [0; 8];
    msg.peek_into(&mut head)?;
    let mut r = XdrReader::new(&head);
    let flavor = r.u32()?;
    let len = r.u32()? as usize;
    let padded = len + (4 - len % 4) % 4;
    let total = 8 + padded;
    let popped = ctx.pop_header(msg, total)?;
    let mut r = XdrReader::new(&popped);
    let flavor2 = r.u32()?;
    debug_assert_eq!(flavor, flavor2);
    let body = r.opaque()?.to_vec();
    Ok((flavor, body))
}

/// The authentication layer protocol.
pub struct AuthLayer {
    me: ProtoId,
    lower: ProtoId,
    scheme: Rc<dyn CredScheme>,
    lower_name: OnceCell<&'static str>,
    upper: UpperCell,
    // Server-side wrappers keyed by the identity of the session they wrap.
    sessions: SessionMap<usize>,
}

impl AuthLayer {
    /// Creates an authentication layer above `lower` using `scheme`.
    pub fn new(me: ProtoId, lower: ProtoId, scheme: Rc<dyn CredScheme>) -> Rc<AuthLayer> {
        Rc::new(AuthLayer {
            me,
            lower,
            scheme,
            lower_name: OnceCell::new(),
            upper: UpperCell::new(),
            sessions: SessionMap::new(),
        })
    }

    /// The scheme in use (tests).
    pub fn scheme(&self) -> &Rc<dyn CredScheme> {
        &self.scheme
    }
}

/// Client session: adds the credential to calls, checks the verifier on
/// replies.
struct AuthClientSession {
    proto: ProtoId,
    scheme: Rc<dyn CredScheme>,
    lower: SessionRef,
}

impl Session for AuthClientSession {
    fn protocol_id(&self) -> ProtoId {
        self.proto
    }

    fn push(&self, ctx: &Ctx, mut msg: Message) -> XResult<Option<Message>> {
        let cred = self.scheme.make_cred(ctx);
        let hdr = encode_auth(self.scheme.flavor(), &cred);
        ctx.push_header(&mut msg, &hdr);
        ctx.charge_layer_call();
        match self.lower.push(ctx, msg)? {
            None => Ok(None),
            Some(mut reply) => {
                // Verify and strip the server's verifier.
                let (flavor, _body) = pop_auth(ctx, &mut reply)?;
                if flavor != self.scheme.flavor() {
                    return Err(XError::Remote(format!(
                        "auth verifier flavor {flavor} != {}",
                        self.scheme.flavor()
                    )));
                }
                Ok(Some(reply))
            }
        }
    }

    fn control(&self, ctx: &Ctx, op: &ControlOp) -> XResult<ControlRes> {
        self.lower.control(ctx, op)
    }
}

/// Server session wrapper: stamps replies with the verifier.
struct AuthServerSession {
    proto: ProtoId,
    scheme: Rc<dyn CredScheme>,
    lls: SessionRef,
}

impl Session for AuthServerSession {
    fn protocol_id(&self) -> ProtoId {
        self.proto
    }

    fn push(&self, ctx: &Ctx, mut msg: Message) -> XResult<Option<Message>> {
        let verf = encode_auth(self.scheme.flavor(), &[]);
        ctx.push_header(&mut msg, &verf);
        ctx.charge_layer_call();
        self.lls.push(ctx, msg)
    }

    fn control(&self, ctx: &Ctx, op: &ControlOp) -> XResult<ControlRes> {
        self.lls.control(ctx, op)
    }
}

impl Protocol for AuthLayer {
    fn contract(&self) -> xkernel::lint::ProtoContract {
        crate::contracts::auth(self.scheme.name())
    }

    fn name(&self) -> &'static str {
        self.scheme.name()
    }

    fn id(&self) -> ProtoId {
        self.me
    }

    fn boot(&self, ctx: &Ctx) -> XResult<()> {
        let lower = ctx.kernel_ref().proto_ref(self.lower)?;
        // The lower protocol is fixed at configuration: a repeated boot
        // finds the same name.
        let _ = self.lower_name.set(lower.name());
        Ok(())
    }

    fn drop_sessions(&self) {
        self.sessions.clear();
    }

    fn open(&self, ctx: &Ctx, _upper: ProtoId, parts: &ParticipantSet) -> XResult<SessionRef> {
        let peer = parts
            .remote_part()
            .and_then(|p| p.host)
            .ok_or_else(|| XError::Config("auth open needs a peer host".into()))?;
        let lname = self
            .lower_name
            .get()
            .ok_or_else(|| XError::Config("auth layer used before boot".into()))?;
        let lparts = ParticipantSet::pair(
            Participant::proto(rel_proto_num(lname, self.scheme.name())?),
            Participant::host(peer),
        );
        ctx.charge_class(OpClass::SessionCreate, ctx.cost().session_create);
        let lower = ctx.kernel_ref().open(ctx, self.lower, self.me, &lparts)?;
        Ok(Rc::new(AuthClientSession {
            proto: self.me,
            scheme: Rc::clone(&self.scheme),
            lower,
        }))
    }

    fn open_enable(&self, ctx: &Ctx, upper: ProtoId, _parts: &ParticipantSet) -> XResult<()> {
        self.upper.set(Some(upper));
        let lname = self
            .lower_name
            .get()
            .ok_or_else(|| XError::Config("auth layer used before boot".into()))?;
        let parts = ParticipantSet::local(Participant::proto(rel_proto_num(
            lname,
            self.scheme.name(),
        )?));
        ctx.kernel_ref()
            .open_enable(ctx, self.lower, self.me, &parts)
    }

    fn demux(&self, ctx: &Ctx, lls: &SessionRef, mut msg: Message) -> XResult<()> {
        let (flavor, body) = pop_auth(ctx, &mut msg)?;
        if flavor != self.scheme.flavor() {
            return Err(Reject::Denied("auth flavor").into());
        }
        if self.scheme.verify_cred(&body).is_err() {
            // Denied requests are dropped; the client's transaction layer
            // will time out (a denied-reply path would also fit here).
            return Err(Reject::Denied("credential").into());
        }
        ctx.charge_class(OpClass::Demux, ctx.cost().demux_lookup);
        let upper = self
            .upper
            .get()
            .ok_or(Reject::NoEnable("auth layer has no upper"))?;
        // Wrap the reply path so the verifier is added (cached per lls).
        let key = Rc::as_ptr(lls) as *const () as usize;
        let sess = {
            let mut cache = self.sessions.lock();
            match cache.get(&key) {
                Some(s) => Rc::clone(s),
                None => {
                    let s: SessionRef = Rc::new(AuthServerSession {
                        proto: self.me,
                        scheme: Rc::clone(&self.scheme),
                        lls: Rc::clone(lls),
                    });
                    // Per-request server sessions (REQUEST_REPLY) would grow
                    // this cache unboundedly; cap it.
                    if cache.len() > 64 {
                        cache.clear();
                    }
                    cache.insert(key, Rc::clone(&s));
                    s
                }
            }
        };
        ctx.kernel_ref().demux_to(ctx, upper, &sess, msg)
    }

    fn control(&self, ctx: &Ctx, op: &ControlOp) -> XResult<ControlRes> {
        match op {
            ControlOp::GetMaxMsgSize => Ok(ControlRes::Size(1500)),
            other => ctx.kernel_ref().control(ctx, self.lower, other),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn auth_none_roundtrip() {
        let s = AuthNone;
        assert_eq!(s.flavor(), 0);
        assert!(s.verify_cred(&s.make_cred_for_test()).is_ok());
        assert!(s.verify_cred(&[1]).is_err());
    }

    impl AuthNone {
        fn make_cred_for_test(&self) -> Vec<u8> {
            Vec::new()
        }
    }

    #[test]
    fn auth_unix_cred_roundtrip_and_allowlist() {
        let client = AuthUnix {
            uid: 501,
            gid: 20,
            machine: "sun3".into(),
            allowed_uids: None,
        };
        let mut w = XdrWriter::new();
        w.u32(0).string("sun3").u32(501).u32(20).u32(0);
        let body = w.finish();
        // A permissive server accepts.
        let open_server = AuthUnix {
            uid: 0,
            gid: 0,
            machine: "srv".into(),
            allowed_uids: None,
        };
        assert!(open_server.verify_cred(&body).is_ok());
        // An allow-listing server rejects unknown uids.
        let strict = AuthUnix {
            uid: 0,
            gid: 0,
            machine: "srv".into(),
            allowed_uids: Some([1000].into_iter().collect()),
        };
        assert!(strict.verify_cred(&body).is_err());
        let _ = client;
    }

    #[test]
    fn encoded_auth_is_aligned() {
        for n in 0..9 {
            let v = encode_auth(1, &vec![7u8; n]);
            assert_eq!(v.len() % 4, 0);
            assert_eq!(v.capacity(), v.len(), "sized up front, never grown");
        }
    }
}
