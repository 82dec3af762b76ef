package srmcoll

// Non-blocking collectives from a continuation-passing body: the methods of
// TComm and TRequest over the forms request.go writes once. They pass the
// caller's continuation where Comm's and Request's pass one with nothing to do,
// and that is all the difference — the ordering and misuse contracts, the
// stream bookkeeping and the timings are the same code.

// TRequest is the handle of a non-blocking collective issued with one of
// TComm's I-methods; see Request for the completion contract.
type TRequest struct{ request }

// Wait completes the request and releases its buffers; see Request.Wait.
// The continuation receives nil or the *RankFailedError the operation died
// with.
func (r *TRequest) Wait(k func(error)) { r.wait(k) }

// Test polls the request after yielding once; see Request.Test. The
// continuation reports whether the operation has completed (consuming the
// request if so).
func (r *TRequest) Test(k func(bool)) { r.test(k) }

// IBarrier starts a non-blocking barrier. The continuation receives the handle
// once the request is admitted: immediately unless the MaxOutstanding bound
// blocks the issuing rank, and so for every I-method.
func (tc *TComm) IBarrier(k func(*TRequest)) { tc.issue(collArgs{kind: collBarrier}, k) }

// IBcast starts a non-blocking broadcast of buf from root; see Bcast.
func (tc *TComm) IBcast(buf []byte, root int, k func(*TRequest)) {
	tc.issue(newArgs(collBcast, buf, nil, 0, 0, root), k)
}

// IReduce starts a non-blocking reduction into recv at root; see Reduce.
func (tc *TComm) IReduce(send, recv []byte, dt Datatype, op Op, root int, k func(*TRequest)) {
	tc.issue(newArgs(collReduce, send, recv, dt, op, root), k)
}

// IAllreduce starts a non-blocking allreduce; see Allreduce.
func (tc *TComm) IAllreduce(send, recv []byte, dt Datatype, op Op, k func(*TRequest)) {
	tc.issue(newArgs(collAllreduce, send, recv, dt, op, 0), k)
}

// IGather starts a non-blocking gather into recv at root; see Gather.
func (tc *TComm) IGather(send, recv []byte, root int, k func(*TRequest)) {
	tc.issue(newArgs(collGather, send, recv, 0, 0, root), k)
}

// IScatter starts a non-blocking scatter from root's send; see Scatter.
func (tc *TComm) IScatter(send, recv []byte, root int, k func(*TRequest)) {
	tc.issue(newArgs(collScatter, send, recv, 0, 0, root), k)
}

// IAllgather starts a non-blocking allgather; see Allgather.
func (tc *TComm) IAllgather(send, recv []byte, k func(*TRequest)) {
	tc.issue(collArgs{kind: collAllgather, send: send, recv: recv}, k)
}

// IAlltoall starts a non-blocking all-to-all exchange; see Alltoall.
func (tc *TComm) IAlltoall(send, recv []byte, k func(*TRequest)) {
	tc.issue(collArgs{kind: collAlltoall, send: send, recv: recv}, k)
}

// IReduceScatter starts a non-blocking reduce-scatter; see ReduceScatter.
func (tc *TComm) IReduceScatter(send, recv []byte, dt Datatype, op Op, k func(*TRequest)) {
	tc.issue(newArgs(collReduceScatter, send, recv, dt, op, 0), k)
}

// IScan starts a non-blocking inclusive prefix reduction; see Scan.
func (tc *TComm) IScan(send, recv []byte, dt Datatype, op Op, k func(*TRequest)) {
	tc.issue(newArgs(collScan, send, recv, dt, op, 0), k)
}

// IExscan starts a non-blocking exclusive prefix reduction; see Exscan.
func (tc *TComm) IExscan(send, recv []byte, dt Datatype, op Op, k func(*TRequest)) {
	tc.issue(newArgs(collExscan, send, recv, dt, op, 0), k)
}
