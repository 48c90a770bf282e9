//! The interpreter: executes a checked program against the real `qs-runtime`.
//!
//! * `main` runs on the calling (client) thread.
//! * `create x` spawns a [`qs_runtime::Handler`] owning a fresh
//!   [`ObjectState`]; the handler *is* the object's SCOOP processor.
//! * `separate x, y do … end` reserves the handlers through the unified
//!   [`qs_runtime::reserve`](fn@qs_runtime::reserve) entry point, so multi-target blocks get the
//!   atomic multi-reservation of §2.4/§3.3.
//! * command calls are logged asynchronously ([`Separate::call`]), query
//!   calls run synchronously; how the synchronisation before a query is
//!   performed is decided by the [`QueryStrategy`], which is where the
//!   naive / dynamic / static code-generation variants of §3.4 plug in.
//!
//! Routine bodies execute against the handler-owned object only (they cannot
//! reserve further handlers), which mirrors the paper's model where a
//! handler processes one logged call at a time.
//!
//! Separate blocks come in two reservation flavours: the exclusive
//! [`qs_runtime::reserve`](fn@qs_runtime::reserve)`.run(…)` path, and the **shared-read** path
//! (`reserve(…).read().run(…)`) used when the block was declared
//! `separate read` or when the effect pass proved it read-only and
//! [`qs_runtime::RuntimeConfig::auto_read`] is enabled.  Under a read
//! reservation queries execute on the client against `&ObjectState`
//! (`ObjRef::Shared`) — a write attempt is a hard error, though the
//! checker already rejects it statically (`QS-E001`).

use std::collections::HashMap;
use std::sync::{Arc, Mutex};

use qs_runtime::{reserve, Handler, ReadSeparate, Runtime, Separate, StatsSnapshot};

use crate::ast::*;
use crate::error::{LangError, LangResult, Phase, Pos};
use crate::lower::{lower_main, SyncPlan};
use crate::sema::CheckedProgram;
use crate::value::{ObjectState, SharedRng, Value};

/// Maximum depth of unqualified routine-to-routine calls inside a class.
const MAX_CALL_DEPTH: usize = 128;

/// How query call sites synchronise with the target handler.
#[derive(Debug, Clone)]
pub enum QueryStrategy {
    /// Let the runtime decide ([`Separate::query`]): the handler executes the
    /// query or the client does, and dynamic sync-coalescing applies when the
    /// runtime configuration enables it.
    RuntimeManaged,
    /// Naive code generation: an explicit sync before every query, then the
    /// query body executes on the client (Fig. 10b without any elision).
    NaiveSync,
    /// The static sync-coalescing plan produced by [`lower_main`]: only the
    /// sites the pass could not prove synchronised perform a sync.
    StaticPlan(SyncPlan),
}

impl QueryStrategy {
    /// Builds the static-plan strategy for a checked program by lowering and
    /// optimising its `main`.
    pub fn static_for(checked: &CheckedProgram) -> QueryStrategy {
        QueryStrategy::StaticPlan(lower_main(checked).plan)
    }
}

/// Everything a finished run reports back.
#[derive(Debug, Clone)]
pub struct RunOutput {
    /// Lines produced by `print`, in order of execution on the producing
    /// thread (client-side prints are totally ordered; handler-side prints
    /// are ordered per handler).
    pub printed: Vec<String>,
    /// Snapshot of the runtime statistics after the run (sync round-trips,
    /// elisions, queries, calls, …).
    pub stats: StatsSnapshot,
    /// Number of handlers the program created.
    pub handlers_created: usize,
}

/// Compiles nothing — runs an already-checked program on `runtime` using the
/// given query strategy.
pub fn run_program(
    checked: &CheckedProgram,
    runtime: &Runtime,
    strategy: QueryStrategy,
) -> LangResult<RunOutput> {
    Interpreter::new(checked.clone(), runtime.clone(), strategy).run()
}

type CommandJob = Box<dyn FnOnce(&mut ObjectState) -> Result<(), String> + Send>;
type QueryJob = Box<dyn for<'a> FnOnce(ObjRef<'a>) -> Result<Value, String> + Send>;

/// A reference to the reserved object a routine body executes against:
/// mutable under an exclusive reservation, shared under a read reservation.
///
/// The `Shared` variant is the runtime backstop behind the static `QS-E001`
/// check: a field write through it is an error, never undefined behaviour.
enum ObjRef<'a> {
    /// Exclusive reservation: reads and writes allowed.
    Mut(&'a mut ObjectState),
    /// Shared-read reservation: reads only.
    Shared(&'a ObjectState),
}

impl ObjRef<'_> {
    fn fields(&self) -> &[Value] {
        match self {
            ObjRef::Mut(obj) => &obj.fields,
            ObjRef::Shared(obj) => &obj.fields,
        }
    }

    fn field_mut(&mut self, slot: usize) -> Result<&mut Value, String> {
        match self {
            ObjRef::Mut(obj) => Ok(&mut obj.fields[slot]),
            ObjRef::Shared(_) => {
                Err("write to attribute state through a read-only reservation".into())
            }
        }
    }

    /// Reborrows for a nested unqualified call, keeping the mutability mode.
    fn reborrow(&mut self) -> ObjRef<'_> {
        match self {
            ObjRef::Mut(obj) => ObjRef::Mut(obj),
            ObjRef::Shared(obj) => ObjRef::Shared(obj),
        }
    }
}

/// Access to the separate objects currently reserved by enclosing blocks.
trait Guards {
    /// Logs an asynchronous command on `target`.
    fn command(&mut self, target: &str, job: CommandJob) -> Result<(), String>;
    /// Performs a synchronous query on `target` for call site `site`.
    fn query(&mut self, target: &str, site: usize, job: QueryJob) -> Result<Value, String>;
}

/// The empty reservation context used at the top level of `main`.
struct NoGuards;

impl Guards for NoGuards {
    fn command(&mut self, target: &str, _job: CommandJob) -> Result<(), String> {
        Err(format!("`{target}` is not reserved by any separate block"))
    }

    fn query(&mut self, target: &str, _site: usize, _job: QueryJob) -> Result<Value, String> {
        Err(format!("`{target}` is not reserved by any separate block"))
    }
}

/// One `separate` block's reservations, chained to the enclosing block's.
struct ReservationFrame<'a, 'g> {
    names: &'a [String],
    guards: &'a mut [Separate<'g, ObjectState>],
    strategy: &'a QueryStrategy,
    parent: &'a mut dyn Guards,
}

impl ReservationFrame<'_, '_> {
    fn index_of(&self, target: &str) -> Option<usize> {
        self.names.iter().position(|n| n == target)
    }
}

impl Guards for ReservationFrame<'_, '_> {
    fn command(&mut self, target: &str, job: CommandJob) -> Result<(), String> {
        match self.index_of(target) {
            Some(index) => {
                self.guards[index].call(move |obj| {
                    // Errors inside asynchronous commands are reported through
                    // the shared error buffer captured in the job itself; a
                    // panic would otherwise tear down the handler thread.
                    let _ = job(obj);
                });
                Ok(())
            }
            None => self.parent.command(target, job),
        }
    }

    fn query(&mut self, target: &str, site: usize, job: QueryJob) -> Result<Value, String> {
        let Some(index) = self.index_of(target) else {
            return self.parent.query(target, site, job);
        };
        let guard = &mut self.guards[index];
        match self.strategy {
            QueryStrategy::RuntimeManaged => guard.query(|obj| job(ObjRef::Mut(obj))),
            QueryStrategy::NaiveSync => {
                guard.sync();
                guard.query_unsynced(|obj| job(ObjRef::Mut(obj)))
            }
            QueryStrategy::StaticPlan(plan) => {
                if plan.needs_sync(site) {
                    guard.sync();
                } else if !guard.is_synced() {
                    // Defensive: the plan promised this site is covered by a
                    // dominating sync.  If the runtime disagrees we fall back
                    // to a sync rather than touching unsynchronised state.
                    guard.sync();
                }
                guard.query_unsynced(|obj| job(ObjRef::Mut(obj)))
            }
        }
    }
}

/// One **shared-read** block's reservations, chained like
/// [`ReservationFrame`].  Queries on the frame's own targets execute on the
/// client thread against the shared object reference; the gate guarantees
/// the handler is quiescent, so no sync is needed regardless of the query
/// strategy.  Commands on the frame's own targets are an error (rejected
/// statically as `QS-E001`; this is the runtime backstop).
struct ReadFrame<'a, 'g> {
    names: &'a [String],
    guards: &'a [ReadSeparate<'g, ObjectState>],
    parent: &'a mut dyn Guards,
}

impl Guards for ReadFrame<'_, '_> {
    fn command(&mut self, target: &str, job: CommandJob) -> Result<(), String> {
        if self.names.iter().any(|n| n == target) {
            return Err(format!(
                "command on `{target}` through a read-only reservation"
            ));
        }
        self.parent.command(target, job)
    }

    fn query(&mut self, target: &str, site: usize, job: QueryJob) -> Result<Value, String> {
        match self.names.iter().position(|n| n == target) {
            Some(index) => self.guards[index].query(|obj| job(ObjRef::Shared(obj))),
            None => self.parent.query(target, site, job),
        }
    }
}

/// Shared pieces captured into command/query jobs that run routine bodies.
struct JobContext {
    checked: Arc<CheckedProgram>,
    printed: Arc<Mutex<Vec<String>>>,
    async_errors: Arc<Mutex<Vec<String>>>,
    rng: SharedRng,
}

impl JobContext {
    fn clone_refs(&self) -> (Arc<CheckedProgram>, Arc<Mutex<Vec<String>>>, SharedRng) {
        (
            Arc::clone(&self.checked),
            Arc::clone(&self.printed),
            self.rng.clone(),
        )
    }
}

/// The values and handlers bound to `main`'s locals.
struct MainEnv {
    vars: HashMap<String, Value>,
    objects: HashMap<String, Handler<ObjectState>>,
}

struct Interpreter {
    checked: Arc<CheckedProgram>,
    runtime: Runtime,
    strategy: QueryStrategy,
    ctx: JobContext,
}

impl Interpreter {
    fn new(checked: CheckedProgram, runtime: Runtime, strategy: QueryStrategy) -> Self {
        let checked = Arc::new(checked);
        let ctx = JobContext {
            checked: Arc::clone(&checked),
            printed: Arc::new(Mutex::new(Vec::new())),
            async_errors: Arc::new(Mutex::new(Vec::new())),
            rng: SharedRng::new(0x5EED),
        };
        Interpreter {
            checked,
            runtime,
            strategy,
            ctx,
        }
    }

    fn run(self) -> LangResult<RunOutput> {
        let mut env = MainEnv {
            vars: HashMap::new(),
            objects: HashMap::new(),
        };
        for local in &self.checked.program.main.locals {
            match &local.ty {
                TypeExpr::SeparateClass(_) => {}
                TypeExpr::Integer => {
                    env.vars.insert(local.name.clone(), Value::Int(0));
                }
                TypeExpr::Boolean => {
                    env.vars.insert(local.name.clone(), Value::Bool(false));
                }
                TypeExpr::Array => {
                    env.vars
                        .insert(local.name.clone(), Value::Array(Vec::new()));
                }
            }
        }

        let body = self.checked.program.main.body.clone();
        let result = self.exec_stmts(&body, &mut env, &mut NoGuards);

        // Shut the handlers down whether or not the program succeeded, so a
        // failing test does not leak handler threads.
        let handlers_created = env.objects.len();
        for handler in env.objects.values() {
            handler.stop();
        }
        for handler in env.objects.values() {
            handler.wait_finished();
        }
        result?;

        let async_errors = self
            .ctx
            .async_errors
            .lock()
            .expect("error buffer poisoned")
            .clone();
        if let Some(first) = async_errors.first() {
            return Err(LangError::general(
                Phase::Run,
                format!(
                    "{first} (raised inside an asynchronous command; {} error(s) in total)",
                    async_errors.len()
                ),
            ));
        }

        let printed = self
            .ctx
            .printed
            .lock()
            .expect("print buffer poisoned")
            .clone();
        Ok(RunOutput {
            printed,
            stats: self.runtime.stats_snapshot(),
            handlers_created,
        })
    }

    // ---- statements in `main` ----------------------------------------------

    fn exec_stmts(
        &self,
        stmts: &[Stmt],
        env: &mut MainEnv,
        guards: &mut dyn Guards,
    ) -> LangResult<()> {
        for stmt in stmts {
            self.exec_stmt(stmt, env, guards)?;
        }
        Ok(())
    }

    fn exec_stmt(&self, stmt: &Stmt, env: &mut MainEnv, guards: &mut dyn Guards) -> LangResult<()> {
        match stmt {
            Stmt::Assign { target, value } => {
                let value = self.eval_expr(value, env, guards)?;
                self.assign(target, value, env, guards)
            }
            Stmt::Create { var, pos } => {
                let class_name = self.checked.handler_classes.get(var).ok_or_else(|| {
                    LangError::at(
                        Phase::Run,
                        *pos,
                        format!("`{var}` is not a separate variable"),
                    )
                })?;
                let info = &self.checked.classes[class_name];
                let handler = self.runtime.spawn_handler(ObjectState::new(info));
                if let Some(previous) = env.objects.insert(var.clone(), handler) {
                    previous.stop();
                }
                Ok(())
            }
            Stmt::SeparateBlock {
                targets,
                read,
                body,
                pos,
            } => {
                let handlers: Vec<Handler<ObjectState>> = targets
                    .iter()
                    .map(|t| {
                        env.objects.get(t).cloned().ok_or_else(|| {
                            LangError::at(
                                Phase::Run,
                                *pos,
                                format!("`{t}` used in a separate block before `create {t}`"),
                            )
                        })
                    })
                    .collect::<LangResult<_>>()?;
                let read_mode = *read
                    || (self.runtime.config().auto_read
                        && self
                            .checked
                            .inferred_read_blocks
                            .contains(&(pos.line, pos.col)));
                if read_mode {
                    // A shared-read reservation only takes the gate; it does
                    // not drain the mailbox.  SCOOP orders this block after
                    // the commands `main` already logged on these handlers,
                    // so flush them under a transient exclusive reservation
                    // first (`main` is the only client, nothing can
                    // interleave before the read acquisition below).
                    reserve(&handlers).run(|reservations| {
                        for reservation in reservations.iter_mut() {
                            reservation.sync();
                        }
                    });
                    reserve(&handlers).read().run(|reservations| {
                        let mut frame = ReadFrame {
                            names: targets,
                            guards: reservations,
                            parent: guards,
                        };
                        self.exec_stmts(body, env, &mut frame)
                    })
                } else {
                    reserve(&handlers).run(|reservations| {
                        let mut frame = ReservationFrame {
                            names: targets,
                            guards: reservations,
                            strategy: &self.strategy,
                            parent: guards,
                        };
                        self.exec_stmts(body, env, &mut frame)
                    })
                }
            }
            Stmt::CommandCall {
                target,
                routine,
                args,
                pos,
            } => {
                let args = self.eval_args(args, env, guards)?;
                let job = self.routine_command_job(target, routine, args, env, *pos)?;
                guards
                    .command(target, job)
                    .map_err(|message| LangError::at(Phase::Run, *pos, message))
            }
            Stmt::LocalCommand { routine, pos, .. } => Err(LangError::at(
                Phase::Run,
                *pos,
                format!("`{routine}(…)` cannot be called from `main`"),
            )),
            Stmt::If {
                arms, otherwise, ..
            } => {
                for (cond, branch) in arms {
                    if self
                        .eval_expr(cond, env, guards)?
                        .as_bool()
                        .map_err(|m| LangError::at(Phase::Run, cond.pos(), m))?
                    {
                        return self.exec_stmts(branch, env, guards);
                    }
                }
                self.exec_stmts(otherwise, env, guards)
            }
            Stmt::While { cond, body, .. } => loop {
                let keep_going = self
                    .eval_expr(cond, env, guards)?
                    .as_bool()
                    .map_err(|m| LangError::at(Phase::Run, cond.pos(), m))?;
                if !keep_going {
                    return Ok(());
                }
                self.exec_stmts(body, env, guards)?;
            },
            Stmt::Print { value, .. } => {
                let line = match value {
                    PrintArg::Text(text) => text.clone(),
                    PrintArg::Value(expr) => self.eval_expr(expr, env, guards)?.render(),
                };
                self.ctx
                    .printed
                    .lock()
                    .expect("print buffer poisoned")
                    .push(line);
                Ok(())
            }
        }
    }

    fn assign(
        &self,
        target: &LValue,
        value: Value,
        env: &mut MainEnv,
        guards: &mut dyn Guards,
    ) -> LangResult<()> {
        match target {
            LValue::Var(name, pos) => {
                let slot = env.vars.get_mut(name).ok_or_else(|| {
                    LangError::at(Phase::Run, *pos, format!("unknown variable `{name}`"))
                })?;
                *slot = value;
                Ok(())
            }
            LValue::Result(pos) => Err(LangError::at(
                Phase::Run,
                *pos,
                "`Result` cannot be assigned in `main`",
            )),
            LValue::Index { array, index, pos } => {
                let index_value = self.eval_expr(index, env, guards)?;
                let i = index_value
                    .as_int()
                    .map_err(|m| LangError::at(Phase::Run, index.pos(), m))?;
                let element = value
                    .as_int()
                    .map_err(|m| LangError::at(Phase::Run, *pos, m))?;
                let slot = env.vars.get_mut(array).ok_or_else(|| {
                    LangError::at(Phase::Run, *pos, format!("unknown variable `{array}`"))
                })?;
                let Value::Array(elements) = slot else {
                    return Err(LangError::at(
                        Phase::Run,
                        *pos,
                        format!("`{array}` is not an ARRAY"),
                    ));
                };
                let len = elements.len();
                let slot = elements
                    .get_mut(usize::try_from(i).unwrap_or(usize::MAX))
                    .ok_or_else(|| {
                        LangError::at(
                            Phase::Run,
                            *pos,
                            format!("index {i} out of bounds for `{array}` of length {len}"),
                        )
                    })?;
                *slot = element;
                Ok(())
            }
        }
    }

    // ---- expressions in `main` ----------------------------------------------

    fn eval_args(
        &self,
        args: &[Expr],
        env: &mut MainEnv,
        guards: &mut dyn Guards,
    ) -> LangResult<Vec<Value>> {
        args.iter()
            .map(|a| self.eval_expr(a, env, guards))
            .collect()
    }

    fn eval_expr(
        &self,
        expr: &Expr,
        env: &mut MainEnv,
        guards: &mut dyn Guards,
    ) -> LangResult<Value> {
        match expr {
            Expr::Int(n, _) => Ok(Value::Int(*n)),
            Expr::Bool(b, _) => Ok(Value::Bool(*b)),
            Expr::Var(name, pos) => env.vars.get(name).cloned().ok_or_else(|| {
                LangError::at(Phase::Run, *pos, format!("unknown variable `{name}`"))
            }),
            Expr::Result(pos) => Err(LangError::at(
                Phase::Run,
                *pos,
                "`Result` is not available in `main`",
            )),
            Expr::Index { array, index, pos } => {
                let array_value = self.eval_expr(array, env, guards)?;
                let index_value = self.eval_expr(index, env, guards)?;
                index_array(&array_value, &index_value)
                    .map_err(|m| LangError::at(Phase::Run, *pos, m))
            }
            Expr::NewArray { len, pos } => {
                let len_value = self.eval_expr(len, env, guards)?;
                new_array(&len_value).map_err(|m| LangError::at(Phase::Run, *pos, m))
            }
            Expr::Length { array, pos } => {
                let array_value = self.eval_expr(array, env, guards)?;
                let elements = array_value
                    .as_array()
                    .map_err(|m| LangError::at(Phase::Run, *pos, m))?;
                Ok(Value::Int(elements.len() as i64))
            }
            Expr::Random { bound, pos } => {
                let bound_value = self.eval_expr(bound, env, guards)?;
                let bound = bound_value
                    .as_int()
                    .map_err(|m| LangError::at(Phase::Run, *pos, m))?;
                self.ctx
                    .rng
                    .next_below(bound)
                    .map(Value::Int)
                    .map_err(|m| LangError::at(Phase::Run, *pos, m))
            }
            Expr::QueryCall {
                target,
                routine,
                args,
                pos,
                site,
            } => {
                let args = self.eval_args(args, env, guards)?;
                let job = self.routine_query_job(target, routine, args, env, *pos)?;
                guards
                    .query(target, *site, job)
                    .map_err(|message| LangError::at(Phase::Run, *pos, message))
            }
            Expr::LocalCall { routine, pos, .. } => Err(LangError::at(
                Phase::Run,
                *pos,
                format!("`{routine}(…)` cannot be called from `main`"),
            )),
            Expr::Binary { op, lhs, rhs, pos } => {
                let left = self.eval_expr(lhs, env, guards)?;
                // `and`/`or` short-circuit.
                if let BinOp::And | BinOp::Or = op {
                    let l = left
                        .as_bool()
                        .map_err(|m| LangError::at(Phase::Run, *pos, m))?;
                    if (*op == BinOp::And && !l) || (*op == BinOp::Or && l) {
                        return Ok(Value::Bool(l));
                    }
                    let right = self.eval_expr(rhs, env, guards)?;
                    let r = right
                        .as_bool()
                        .map_err(|m| LangError::at(Phase::Run, *pos, m))?;
                    return Ok(Value::Bool(r));
                }
                let right = self.eval_expr(rhs, env, guards)?;
                apply_binary(*op, &left, &right).map_err(|m| LangError::at(Phase::Run, *pos, m))
            }
            Expr::Unary { op, expr, pos } => {
                let value = self.eval_expr(expr, env, guards)?;
                apply_unary(*op, &value).map_err(|m| LangError::at(Phase::Run, *pos, m))
            }
        }
    }

    // ---- packaging routine bodies into handler jobs ------------------------

    fn target_class(&self, target: &str, env: &MainEnv, pos: Pos) -> LangResult<String> {
        // The class is statically known; consult the handler map first so a
        // `create` that replaced the object keeps working.
        if env.objects.contains_key(target) || self.checked.handler_classes.contains_key(target) {
            Ok(self.checked.handler_classes[target].clone())
        } else {
            Err(LangError::at(
                Phase::Run,
                pos,
                format!("`{target}` is not a separate variable"),
            ))
        }
    }

    fn routine_command_job(
        &self,
        target: &str,
        routine: &str,
        args: Vec<Value>,
        env: &MainEnv,
        pos: Pos,
    ) -> LangResult<CommandJob> {
        let class = self.target_class(target, env, pos)?;
        let (checked, printed, rng) = self.ctx.clone_refs();
        let errors = Arc::clone(&self.ctx.async_errors);
        let routine = routine.to_string();
        Ok(Box::new(move |obj: &mut ObjectState| {
            let outcome = exec_routine(
                &checked,
                &printed,
                &rng,
                &class,
                &routine,
                args,
                ObjRef::Mut(obj),
                0,
            );
            if let Err(message) = outcome {
                errors
                    .lock()
                    .expect("error buffer poisoned")
                    .push(format!("in {class}.{routine}: {message}"));
                return Err(message);
            }
            Ok(())
        }))
    }

    fn routine_query_job(
        &self,
        target: &str,
        routine: &str,
        args: Vec<Value>,
        env: &MainEnv,
        pos: Pos,
    ) -> LangResult<QueryJob> {
        let class = self.target_class(target, env, pos)?;
        let (checked, printed, rng) = self.ctx.clone_refs();
        let routine = routine.to_string();
        Ok(Box::new(move |obj: ObjRef<'_>| {
            exec_routine(&checked, &printed, &rng, &class, &routine, args, obj, 0)
                .map_err(|message| format!("in {class}.{routine}: {message}"))
        }))
    }
}

// ---- routine bodies (execute on whichever thread owns the object) ----------

/// Executes one routine of `class` against `obj` and returns its result
/// (`Value::Void` for commands).  A [`ObjRef::Shared`] object reference
/// makes every attribute write fail, which is what running a (proven pure)
/// query under a shared-read reservation requires.
#[allow(clippy::too_many_arguments)]
fn exec_routine(
    checked: &Arc<CheckedProgram>,
    printed: &Arc<Mutex<Vec<String>>>,
    rng: &SharedRng,
    class: &str,
    routine_name: &str,
    args: Vec<Value>,
    obj: ObjRef<'_>,
    depth: usize,
) -> Result<Value, String> {
    if depth > MAX_CALL_DEPTH {
        return Err(format!(
            "call depth exceeded {MAX_CALL_DEPTH} in `{routine_name}`"
        ));
    }
    let class_decl = checked
        .program
        .class(class)
        .ok_or_else(|| format!("unknown class `{class}`"))?;
    let routine = class_decl
        .routine(routine_name)
        .ok_or_else(|| format!("class `{class}` has no routine `{routine_name}`"))?;
    if args.len() != routine.params.len() {
        return Err(format!(
            "`{routine_name}` expects {} argument(s), got {}",
            routine.params.len(),
            args.len()
        ));
    }

    let mut env = RoutineEnv {
        checked,
        printed,
        rng,
        class_info: &checked.classes[class],
        vars: HashMap::new(),
        result: routine
            .result
            .as_ref()
            .map(|_| Value::Int(0))
            .unwrap_or(Value::Void),
        obj,
        depth,
    };
    // Results default per declared type.
    if let Some(result_ty) = &routine.result {
        env.result = match result_ty {
            TypeExpr::Integer => Value::Int(0),
            TypeExpr::Boolean => Value::Bool(false),
            TypeExpr::Array => Value::Array(Vec::new()),
            TypeExpr::SeparateClass(_) => Value::Void,
        };
    }
    for (param, value) in routine.params.iter().zip(args) {
        env.vars.insert(param.name.clone(), value);
    }
    for local in &routine.locals {
        let default = match local.ty {
            TypeExpr::Integer => Value::Int(0),
            TypeExpr::Boolean => Value::Bool(false),
            TypeExpr::Array => Value::Array(Vec::new()),
            TypeExpr::SeparateClass(_) => Value::Void,
        };
        env.vars.insert(local.name.clone(), default);
    }

    if let Some(require) = &routine.require {
        if !env.eval(require)?.as_bool()? {
            return Err(format!("precondition of `{routine_name}` violated"));
        }
    }
    env.exec_stmts(&routine.body)?;
    if let Some(ensure) = &routine.ensure {
        if !env.eval(ensure)?.as_bool()? {
            return Err(format!("postcondition of `{routine_name}` violated"));
        }
    }
    Ok(env.result)
}

struct RoutineEnv<'a> {
    checked: &'a Arc<CheckedProgram>,
    printed: &'a Arc<Mutex<Vec<String>>>,
    rng: &'a SharedRng,
    class_info: &'a crate::sema::ClassInfo,
    vars: HashMap<String, Value>,
    result: Value,
    obj: ObjRef<'a>,
    depth: usize,
}

impl RoutineEnv<'_> {
    fn read_var(&self, name: &str) -> Result<Value, String> {
        if let Some(v) = self.vars.get(name) {
            return Ok(v.clone());
        }
        if let Some(&slot) = self.class_info.field_index.get(name) {
            return Ok(self.obj.fields()[slot].clone());
        }
        Err(format!("unknown variable `{name}`"))
    }

    fn write_var(&mut self, name: &str, value: Value) -> Result<(), String> {
        if let Some(slot) = self.vars.get_mut(name) {
            *slot = value;
            return Ok(());
        }
        if let Some(&slot) = self.class_info.field_index.get(name) {
            *self.obj.field_mut(slot)? = value;
            return Ok(());
        }
        Err(format!("unknown variable `{name}`"))
    }

    fn exec_stmts(&mut self, stmts: &[Stmt]) -> Result<(), String> {
        for stmt in stmts {
            self.exec_stmt(stmt)?;
        }
        Ok(())
    }

    fn exec_stmt(&mut self, stmt: &Stmt) -> Result<(), String> {
        match stmt {
            Stmt::Assign { target, value } => {
                let value = self.eval(value)?;
                match target {
                    LValue::Var(name, _) => self.write_var(name, value),
                    LValue::Result(_) => {
                        self.result = value;
                        Ok(())
                    }
                    LValue::Index { array, index, .. } => {
                        let i = self.eval(index)?.as_int()?;
                        let element = value.as_int()?;
                        let current = self.read_var(array)?;
                        let Value::Array(mut elements) = current else {
                            return Err(format!("`{array}` is not an ARRAY"));
                        };
                        let len = elements.len();
                        let slot = elements
                            .get_mut(usize::try_from(i).unwrap_or(usize::MAX))
                            .ok_or_else(|| {
                                format!("index {i} out of bounds for `{array}` of length {len}")
                            })?;
                        *slot = element;
                        self.write_var(array, Value::Array(elements))
                    }
                }
            }
            Stmt::If {
                arms, otherwise, ..
            } => {
                for (cond, branch) in arms {
                    if self.eval(cond)?.as_bool()? {
                        return self.exec_stmts(branch);
                    }
                }
                self.exec_stmts(otherwise)
            }
            Stmt::While { cond, body, .. } => {
                while self.eval(cond)?.as_bool()? {
                    self.exec_stmts(body)?;
                }
                Ok(())
            }
            Stmt::Print { value, .. } => {
                let line = match value {
                    PrintArg::Text(text) => text.clone(),
                    PrintArg::Value(expr) => self.eval(expr)?.render(),
                };
                self.printed
                    .lock()
                    .expect("print buffer poisoned")
                    .push(line);
                Ok(())
            }
            Stmt::LocalCommand { routine, args, .. } => {
                let args = args
                    .iter()
                    .map(|a| self.eval(a))
                    .collect::<Result<Vec<_>, _>>()?;
                exec_routine(
                    self.checked,
                    self.printed,
                    self.rng,
                    &self.class_info.name,
                    routine,
                    args,
                    self.obj.reborrow(),
                    self.depth + 1,
                )?;
                Ok(())
            }
            Stmt::Create { var, .. } => {
                Err(format!("`create {var}` is not allowed inside a routine"))
            }
            Stmt::SeparateBlock { .. } => {
                Err("separate blocks are not allowed inside a routine".into())
            }
            Stmt::CommandCall {
                target, routine, ..
            } => Err(format!(
                "`{target}.{routine}`: separate calls are not allowed inside a routine"
            )),
        }
    }

    fn eval(&mut self, expr: &Expr) -> Result<Value, String> {
        match expr {
            Expr::Int(n, _) => Ok(Value::Int(*n)),
            Expr::Bool(b, _) => Ok(Value::Bool(*b)),
            Expr::Var(name, _) => self.read_var(name),
            Expr::Result(_) => Ok(self.result.clone()),
            Expr::Index { array, index, .. } => {
                let array_value = self.eval(array)?;
                let index_value = self.eval(index)?;
                index_array(&array_value, &index_value)
            }
            Expr::NewArray { len, .. } => {
                let len_value = self.eval(len)?;
                new_array(&len_value)
            }
            Expr::Length { array, .. } => {
                let array_value = self.eval(array)?;
                Ok(Value::Int(array_value.as_array()?.len() as i64))
            }
            Expr::Random { bound, .. } => {
                let bound = self.eval(bound)?.as_int()?;
                self.rng.next_below(bound).map(Value::Int)
            }
            Expr::QueryCall {
                target, routine, ..
            } => Err(format!(
                "`{target}.{routine}`: separate calls are not allowed inside a routine"
            )),
            Expr::LocalCall { routine, args, .. } => {
                let args = args
                    .iter()
                    .map(|a| self.eval(a))
                    .collect::<Result<Vec<_>, _>>()?;
                exec_routine(
                    self.checked,
                    self.printed,
                    self.rng,
                    &self.class_info.name,
                    routine,
                    args,
                    self.obj.reborrow(),
                    self.depth + 1,
                )
            }
            Expr::Binary { op, lhs, rhs, .. } => {
                let left = self.eval(lhs)?;
                if let BinOp::And | BinOp::Or = op {
                    let l = left.as_bool()?;
                    if (*op == BinOp::And && !l) || (*op == BinOp::Or && l) {
                        return Ok(Value::Bool(l));
                    }
                    return Ok(Value::Bool(self.eval(rhs)?.as_bool()?));
                }
                let right = self.eval(rhs)?;
                apply_binary(*op, &left, &right)
            }
            Expr::Unary { op, expr, .. } => {
                let value = self.eval(expr)?;
                apply_unary(*op, &value)
            }
        }
    }
}

// ---- shared value operations ------------------------------------------------

fn index_array(array: &Value, index: &Value) -> Result<Value, String> {
    let elements = array.as_array()?;
    let i = index.as_int()?;
    let len = elements.len();
    elements
        .get(usize::try_from(i).unwrap_or(usize::MAX))
        .map(|v| Value::Int(*v))
        .ok_or_else(|| format!("index {i} out of bounds for an array of length {len}"))
}

fn new_array(len: &Value) -> Result<Value, String> {
    let n = len.as_int()?;
    if n < 0 {
        return Err(format!("array({n}): length must be non-negative"));
    }
    Ok(Value::Array(vec![0; n as usize]))
}

fn apply_binary(op: BinOp, left: &Value, right: &Value) -> Result<Value, String> {
    match op {
        BinOp::Add | BinOp::Sub | BinOp::Mul | BinOp::Div | BinOp::Mod => {
            let l = left.as_int()?;
            let r = right.as_int()?;
            let value = match op {
                BinOp::Add => l.wrapping_add(r),
                BinOp::Sub => l.wrapping_sub(r),
                BinOp::Mul => l.wrapping_mul(r),
                BinOp::Div => {
                    if r == 0 {
                        return Err("division by zero".into());
                    }
                    l.wrapping_div(r)
                }
                BinOp::Mod => {
                    if r == 0 {
                        return Err("modulo by zero".into());
                    }
                    l.wrapping_rem(r)
                }
                _ => unreachable!(),
            };
            Ok(Value::Int(value))
        }
        BinOp::Lt | BinOp::Le | BinOp::Gt | BinOp::Ge => {
            let l = left.as_int()?;
            let r = right.as_int()?;
            let value = match op {
                BinOp::Lt => l < r,
                BinOp::Le => l <= r,
                BinOp::Gt => l > r,
                BinOp::Ge => l >= r,
                _ => unreachable!(),
            };
            Ok(Value::Bool(value))
        }
        BinOp::Eq => Ok(Value::Bool(left == right)),
        BinOp::Neq => Ok(Value::Bool(left != right)),
        BinOp::And => Ok(Value::Bool(left.as_bool()? && right.as_bool()?)),
        BinOp::Or => Ok(Value::Bool(left.as_bool()? || right.as_bool()?)),
    }
}

fn apply_unary(op: UnOp, value: &Value) -> Result<Value, String> {
    match op {
        UnOp::Neg => Ok(Value::Int(value.as_int()?.wrapping_neg())),
        UnOp::Not => Ok(Value::Bool(!value.as_bool()?)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_program;
    use crate::sema::check_program;
    use qs_runtime::{OptimizationLevel, RuntimeConfig};

    fn checked(source: &str) -> CheckedProgram {
        check_program(parse_program(source).unwrap()).unwrap()
    }

    fn run(source: &str, strategy: QueryStrategy) -> RunOutput {
        let runtime = Runtime::new(RuntimeConfig::all_optimizations());
        run_program(&checked(source), &runtime, strategy).unwrap()
    }

    const COUNTER: &str = "class COUNTER\n\
         attribute count : INTEGER\n\
         command bump(amount: INTEGER) do count := count + amount end\n\
         command reset do count := 0 end\n\
         query value : INTEGER do Result := count end\n\
       end\n";

    #[test]
    fn counter_program_produces_expected_output() {
        let source = format!(
            "{COUNTER}\
             main local c : separate COUNTER local v : INTEGER local i : INTEGER do \
               create c \
               separate c do \
                 i := 0 \
                 while i < 10 loop c.bump(2) i := i + 1 end \
                 v := c.value() \
               end \
               print(v) \
             end"
        );
        for strategy in [
            QueryStrategy::RuntimeManaged,
            QueryStrategy::NaiveSync,
            QueryStrategy::static_for(&checked(&source)),
        ] {
            let output = run(&source, strategy);
            assert_eq!(output.printed, vec!["20"]);
            assert_eq!(output.handlers_created, 1);
        }
    }

    #[test]
    fn static_plan_elides_syncs_in_copy_loops() {
        let source = "class STORE\n\
               attribute data : ARRAY\n\
               command fill(n: INTEGER) local i : INTEGER do \
                 data := array(n) i := 0 \
                 while i < n loop data[i] := i * i i := i + 1 end \
               end\n\
               query item(i: INTEGER) : INTEGER do Result := data[i] end\n\
               query size : INTEGER do Result := length(data) end\n\
             end\n\
             main local s : separate STORE local x : ARRAY local i : INTEGER local n : INTEGER do \
               create s \
               separate s do \
                 s.fill(50) \
                 n := s.size() \
                 x := array(n) \
                 i := 0 \
                 while i < n loop x[i] := s.item(i) i := i + 1 end \
               end \
               print(x[49]) \
             end"
        .to_string();
        let program = checked(&source);

        // Naive: one sync round-trip per query (51 queries).  Run on a
        // configuration without dynamic coalescing so the runtime cannot help.
        let naive_rt = Runtime::new(OptimizationLevel::QoQ.config());
        let naive = run_program(&program, &naive_rt, QueryStrategy::NaiveSync).unwrap();
        assert_eq!(naive.printed, vec![format!("{}", 49 * 49)]);
        assert_eq!(naive.stats.syncs_performed, 51);

        // Static: the loop-body sync is elided; only `size` (after the fill)
        // and the defensive first sync remain.
        let static_rt = Runtime::new(OptimizationLevel::QoQ.config());
        let static_plan = QueryStrategy::static_for(&program);
        let optimized = run_program(&program, &static_rt, static_plan).unwrap();
        assert_eq!(optimized.printed, vec![format!("{}", 49 * 49)]);
        assert!(
            optimized.stats.syncs_performed <= 2,
            "expected at most 2 sync round-trips, measured {}",
            optimized.stats.syncs_performed
        );
    }

    #[test]
    fn contracts_are_enforced() {
        let source = "class GAUGE\n\
             attribute level : INTEGER\n\
             command raise(amount: INTEGER) require amount > 0 do level := level + amount ensure level > 0 end\n\
             query value : INTEGER do Result := level end\n\
           end\n\
           main local g : separate GAUGE local v : INTEGER do \
             create g separate g do g.raise(0 - 5) v := g.value() end print(v) end";
        let runtime = Runtime::new(RuntimeConfig::all_optimizations());
        let err =
            run_program(&checked(source), &runtime, QueryStrategy::RuntimeManaged).unwrap_err();
        assert!(err.message.contains("precondition"), "got: {}", err.message);
    }

    #[test]
    fn postcondition_violation_in_query_is_reported() {
        let source = "class BROKEN\n\
             attribute n : INTEGER\n\
             query bad : INTEGER do Result := 0 ensure Result > 0 end\n\
           end\n\
           main local b : separate BROKEN local v : INTEGER do \
             create b separate b do v := b.bad() end end";
        let runtime = Runtime::new(RuntimeConfig::all_optimizations());
        let err =
            run_program(&checked(source), &runtime, QueryStrategy::RuntimeManaged).unwrap_err();
        assert!(err.message.contains("postcondition"));
    }

    #[test]
    fn multi_handler_blocks_keep_consistency() {
        let source = format!(
            "{COUNTER}\
             main local a : separate COUNTER local b : separate COUNTER \
                  local x : INTEGER local y : INTEGER do \
               create a create b \
               separate a, b do \
                 a.bump(7) b.bump(7) \
                 x := a.value() y := b.value() \
               end \
               if x = y then print(\"consistent\") else print(\"inconsistent\") end \
             end"
        );
        let output = run(&source, QueryStrategy::RuntimeManaged);
        assert_eq!(output.printed, vec!["consistent"]);
        assert_eq!(output.handlers_created, 2);
    }

    #[test]
    fn nested_separate_blocks_reach_outer_reservations() {
        let source = format!(
            "{COUNTER}\
             main local a : separate COUNTER local b : separate COUNTER local v : INTEGER do \
               create a create b \
               separate a do \
                 a.bump(1) \
                 separate b do \
                   b.bump(2) \
                   a.bump(3) \
                   v := a.value() + b.value() \
                 end \
               end \
               print(v) \
             end"
        );
        let output = run(&source, QueryStrategy::RuntimeManaged);
        assert_eq!(output.printed, vec!["6"]);
    }

    #[test]
    fn handler_side_prints_and_local_calls_work() {
        let source = "class WORKER\n\
             attribute total : INTEGER\n\
             query double(v: INTEGER) : INTEGER do Result := v * 2 end\n\
             command work(v: INTEGER) do total := total + double(v) print(total) end\n\
             query total_done : INTEGER do Result := total end\n\
           end\n\
           main local w : separate WORKER local t : INTEGER do \
             create w separate w do w.work(5) w.work(10) t := w.total_done() end print(t) end";
        let output = run(source, QueryStrategy::RuntimeManaged);
        assert_eq!(output.printed, vec!["10", "30", "30"]);
    }

    #[test]
    fn runtime_errors_carry_positions_and_stop_handlers() {
        let source = format!(
            "{COUNTER}\
             main local c : separate COUNTER local v : INTEGER do \
               create c separate c do v := c.value() end v := v / 0 end"
        );
        let runtime = Runtime::new(RuntimeConfig::all_optimizations());
        let err =
            run_program(&checked(&source), &runtime, QueryStrategy::RuntimeManaged).unwrap_err();
        assert!(err.message.contains("division by zero"));
        assert!(err.pos.is_some());
    }

    #[test]
    fn async_command_errors_surface_after_the_run() {
        let source = "class FUSSY\n\
             attribute n : INTEGER\n\
             command must_be_positive(v: INTEGER) require v > 0 do n := v end\n\
           end\n\
           main local f : separate FUSSY do \
             create f separate f do f.must_be_positive(0 - 1) end end";
        let runtime = Runtime::new(RuntimeConfig::all_optimizations());
        let err =
            run_program(&checked(source), &runtime, QueryStrategy::RuntimeManaged).unwrap_err();
        assert!(err.message.contains("asynchronous command"));
        assert!(err.message.contains("precondition"));
    }

    #[test]
    fn every_optimization_level_computes_the_same_answer() {
        let source = format!(
            "{COUNTER}\
             main local c : separate COUNTER local v : INTEGER local i : INTEGER do \
               create c \
               separate c do \
                 i := 0 \
                 while i < 25 loop c.bump(i) i := i + 1 end \
                 v := c.value() \
               end \
               print(v) \
             end"
        );
        let program = checked(&source);
        let expected = (0..25).sum::<i64>().to_string();
        for level in [
            OptimizationLevel::None,
            OptimizationLevel::Dynamic,
            OptimizationLevel::Static,
            OptimizationLevel::QoQ,
            OptimizationLevel::All,
        ] {
            let runtime = Runtime::new(level.config());
            let strategy = if level == OptimizationLevel::Static {
                QueryStrategy::static_for(&program)
            } else {
                QueryStrategy::RuntimeManaged
            };
            let output = run_program(&program, &runtime, strategy).unwrap();
            assert_eq!(output.printed, vec![expected.clone()], "level {level}");
        }
    }

    #[test]
    fn declared_read_blocks_execute_queries_client_side() {
        let source = format!(
            "{COUNTER}\
             main local c : separate COUNTER local v : INTEGER local i : INTEGER do \
               create c \
               separate c do c.bump(5) end \
               separate read c do \
                 i := 0 \
                 while i < 20 loop v := v + c.value() i := i + 1 end \
               end \
               print(v) \
             end"
        );
        let output = run(&source, QueryStrategy::RuntimeManaged);
        assert_eq!(output.printed, vec!["100"]);
        assert!(
            output.stats.read_reservations >= 1,
            "declared read block must take a shared-read reservation"
        );
    }

    #[test]
    fn auto_read_downgrades_inferred_blocks() {
        let source = format!(
            "{COUNTER}\
             main local c : separate COUNTER local v : INTEGER do \
               create c \
               separate c do c.bump(3) end \
               separate c do v := c.value() + c.value() end \
               print(v) \
             end"
        );
        let program = checked(&source);
        assert_eq!(program.inferred_read_blocks.len(), 1);

        let on = Runtime::new(RuntimeConfig::all_optimizations());
        let with_auto = run_program(&program, &on, QueryStrategy::RuntimeManaged).unwrap();
        assert_eq!(with_auto.printed, vec!["6"]);
        assert!(with_auto.stats.read_reservations >= 1);

        let off = Runtime::new(RuntimeConfig::all_optimizations().with_auto_read(false));
        let without = run_program(&program, &off, QueryStrategy::RuntimeManaged).unwrap();
        assert_eq!(without.printed, vec!["6"]);
        assert_eq!(
            without.stats.read_reservations, 0,
            "auto_read off must keep the exclusive reservation"
        );
    }

    #[test]
    fn read_frame_reaches_outer_exclusive_reservations() {
        let source = format!(
            "{COUNTER}\
             main local a : separate COUNTER local b : separate COUNTER local v : INTEGER do \
               create a create b \
               separate a do \
                 a.bump(2) \
                 separate read b do v := a.value() + b.value() end \
               end \
               print(v) \
             end"
        );
        let output = run(&source, QueryStrategy::RuntimeManaged);
        assert_eq!(output.printed, vec!["2"]);
    }

    #[test]
    fn arrays_random_and_printing_in_main() {
        let source = "main local a : ARRAY local i : INTEGER local total : INTEGER do \
             a := array(8) i := 0 \
             while i < 8 loop a[i] := random(10) total := total + a[i] i := i + 1 end \
             if total >= 0 and total <= 72 then print(\"in range\") else print(\"out of range\") end \
             print(length(a)) \
           end";
        let output = run(source, QueryStrategy::RuntimeManaged);
        assert_eq!(output.printed, vec!["in range", "8"]);
    }
}
