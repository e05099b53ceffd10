package kernel

import (
	"fmt"
	"math"
	"sort"
)

// callWeight is one entry of an operation's call profile: a core-kernel
// function and its relative weight within the op. Weights are scaled so the
// op's total call count matches TotalCalls.
type callWeight struct {
	fn     string
	weight float64
}

// OpSpec is the declarative definition of a kernel operation (a syscall
// path or kernel event). BaseUS is the virtual latency of the operation on
// an un-instrumented kernel in microseconds; TotalCalls is the mean number
// of core-kernel function invocations the op performs. Both are calibrated
// against the paper's Table 1 where the op appears there, and hand-set from
// kernel-path intuition otherwise.
type OpSpec struct {
	Name        string
	BaseUS      float64
	TotalCalls  float64
	ModuleCalls float64 // calls into uninstrumented module code (cost, no trace)
	Profile     []callWeight
}

// Op is a compiled operation: the profile resolved against a symbol table
// and scaled to per-execution mean call counts.
type Op struct {
	Name        string
	BaseNS      float64
	TotalCalls  float64
	ModuleCalls float64
	Funcs       []FuncID  // parallel to MeanCounts
	MeanCounts  []float64 // mean invocations of Funcs[i] per op execution
}

// p is shorthand for a profile entry.
func p(fn string, w float64) callWeight { return callWeight{fn: fn, weight: w} }

// path returns weight-1 profile entries for a straight-line call path.
func path(fns ...string) []callWeight {
	out := make([]callWeight, len(fns))
	for i, f := range fns {
		out[i] = callWeight{fn: f, weight: 1}
	}
	return out
}

// merge concatenates profile fragments.
func merge(parts ...[]callWeight) []callWeight {
	var out []callWeight
	for _, p := range parts {
		out = append(out, p...)
	}
	return out
}

// syscallEntry is the common entry/exit fragment every syscall path shares.
func syscallEntry() []callWeight {
	return []callWeight{
		p("system_call_entry", 1), p("system_call_exit", 1),
		p("syscall_trace_enter", 0.1), p("syscall_trace_leave", 0.1),
	}
}

// Canonical operation names. Workloads and benchmarks refer to ops by these
// constants; typos become compile errors instead of runtime map misses.
const (
	OpSimpleSyscall   = "simple_syscall"
	OpSimpleRead      = "simple_read"
	OpSimpleWrite     = "simple_write"
	OpSimpleStat      = "simple_stat"
	OpSimpleFstat     = "simple_fstat"
	OpSimpleOpenClose = "simple_open_close"
	OpSelect10        = "select_10fd"
	OpSelect10TCP     = "select_10tcp"
	OpSelect100       = "select_100fd"
	OpSelect100TCP    = "select_100tcp"
	OpSignalInstall   = "signal_install"
	OpSignalHandle    = "signal_handler"
	OpProtFault       = "protection_fault"
	OpPipeLatency     = "pipe_latency"
	OpAFUnixLatency   = "af_unix_latency"
	OpFcntlLock       = "fcntl_lock"
	OpSemaphore       = "semaphore"
	OpForkExit        = "fork_exit"
	OpForkExecve      = "fork_execve"
	OpForkSh          = "fork_sh"
	OpMmapFile        = "mmap_file"
	OpPageFault       = "pagefault"
	OpUnixConnect     = "unix_connect"

	OpHTTPRequest  = "http_request"
	OpDbenchIO     = "dbench_io"
	OpScpChunk     = "scp_chunk"
	OpCompileUnit  = "compile_unit"
	OpDiskRead     = "disk_read"
	OpDiskWrite    = "disk_write"
	OpFsyncOp      = "fsync"
	OpCtxSwitch    = "ctx_switch"
	OpTimerTick    = "timer_tick"
	OpBgHousekeep  = "bg_housekeeping"
	OpDaemonLog    = "daemon_logging"
	OpBootPhase    = "boot_phase"
	OpTCPTxSegment = "tcp_tx_segment"
)

// opSpecs is the operation catalog. The 23 lmbench rows of Table 1 have
// BaseUS taken from the paper's vanilla column and TotalCalls fitted from
// the paper's Ftrace column under the global Ftrace per-call cost (see
// trace package): calls = (ftrace_us - base_us) / 0.040.
var opSpecs = []OpSpec{
	{
		Name: OpSimpleSyscall, BaseUS: 0.041, TotalCalls: 4.2,
		Profile: merge(syscallEntry(), path("getnstimeofday", "current_kernel_time_op")),
	},
	{
		Name: OpSimpleRead, BaseUS: 0.101, TotalCalls: 27.4,
		Profile: merge(syscallEntry(), path(
			"sys_read_op", "fget_light", "vfs_read", "rw_verify_area",
			"security_file_permission_op", "do_sync_read", "generic_file_aio_read",
			"do_generic_file_read", "find_get_page", "mark_page_accessed",
			"copy_to_user_op", "touch_atime", "fput",
		), []callWeight{p("_spin_lock", 3), p("_spin_unlock", 3), p("find_get_page", 1)}),
	},
	{
		Name: OpSimpleWrite, BaseUS: 0.086, TotalCalls: 23.2,
		Profile: merge(syscallEntry(), path(
			"sys_write_op", "fget_light", "vfs_write", "rw_verify_area",
			"security_file_permission_op", "do_sync_write", "generic_file_aio_write",
			"generic_perform_write", "grab_cache_page", "copy_from_user_op",
			"__set_page_dirty_buffers", "balance_dirty_pages_ratelimited",
			"file_update_time", "fput",
		), []callWeight{p("_spin_lock", 2), p("_spin_unlock", 2)}),
	},
	{
		Name: OpSimpleStat, BaseUS: 0.721, TotalCalls: 157.2,
		Profile: merge(syscallEntry(), path(
			"vfs_stat", "vfs_getattr", "generic_fillattr", "cp_new_stat",
			"copy_to_user_op",
		), []callWeight{
			p("path_lookup", 2), p("do_path_lookup", 2), p("__link_path_walk", 6),
			p("do_lookup", 6), p("d_lookup", 8), p("permission_op", 6),
			p("exec_permission_lite", 4), p("dput", 6), p("mntput_no_expire", 2),
			p("_spin_lock", 20), p("_spin_unlock", 20), p("atomic_dec_and_lock_op", 4),
		}),
	},
	{
		Name: OpSimpleFstat, BaseUS: 0.100, TotalCalls: 18.8,
		Profile: merge(syscallEntry(), path(
			"vfs_fstat", "fget_light", "vfs_getattr", "generic_fillattr",
			"cp_new_stat", "copy_to_user_op", "fput",
		), []callWeight{p("_spin_lock", 2), p("_spin_unlock", 2)}),
	},
	{
		Name: OpSimpleOpenClose, BaseUS: 1.193, TotalCalls: 250.7,
		Profile: merge(syscallEntry(), path(
			"do_sys_open", "do_filp_open", "dentry_open", "get_unused_fd_flags",
			"fd_install", "may_open", "generic_file_open", "filp_close", "fput",
		), []callWeight{
			p("path_lookup", 2), p("__link_path_walk", 8), p("do_lookup", 8),
			p("d_lookup", 10), p("permission_op", 8), p("dput", 8),
			p("kmem_cache_alloc", 4), p("kmem_cache_free", 4),
			p("_spin_lock", 30), p("_spin_unlock", 30),
			p("ext3_lookup", 2), p("ext3_find_entry", 2),
		}),
	},
	{
		Name: OpSelect10, BaseUS: 0.231, TotalCalls: 29.5,
		Profile: merge(syscallEntry(), path(
			"sys_select_op", "core_sys_select", "do_select", "poll_initwait",
			"poll_freewait", "select_estimate_accuracy", "max_select_fd",
			"poll_select_copy_remaining", "copy_from_user_op", "copy_to_user_op",
		), []callWeight{p("fget_light", 10), p("pipe_poll", 10), p("__pollwait", 2)}),
	},
	{
		Name: OpSelect10TCP, BaseUS: 0.261, TotalCalls: 38.4,
		Profile: merge(syscallEntry(), path(
			"sys_select_op", "core_sys_select", "do_select", "poll_initwait",
			"poll_freewait", "select_estimate_accuracy", "max_select_fd",
			"poll_select_copy_remaining", "copy_from_user_op", "copy_to_user_op",
		), []callWeight{
			p("fget_light", 10), p("sock_poll", 10), p("lock_sock_nested", 2),
			p("release_sock", 2), p("__pollwait", 2),
		}),
	},
	{
		Name: OpSelect100, BaseUS: 0.897, TotalCalls: 222.8,
		Profile: merge(syscallEntry(), path(
			"sys_select_op", "core_sys_select", "do_select", "poll_initwait",
			"poll_freewait", "select_estimate_accuracy", "max_select_fd",
			"poll_select_copy_remaining", "copy_from_user_op", "copy_to_user_op",
		), []callWeight{p("fget_light", 100), p("pipe_poll", 100), p("__pollwait", 8)}),
	},
	{
		Name: OpSelect100TCP, BaseUS: 2.189, TotalCalls: 610.7,
		Profile: merge(syscallEntry(), path(
			"sys_select_op", "core_sys_select", "do_select", "poll_initwait",
			"poll_freewait", "select_estimate_accuracy", "max_select_fd",
			"poll_select_copy_remaining", "copy_from_user_op", "copy_to_user_op",
		), []callWeight{
			p("fget_light", 100), p("sock_poll", 100), p("lock_sock_nested", 60),
			p("release_sock", 60), p("__pollwait", 8), p("_spin_lock", 80),
			p("_spin_unlock", 80),
		}),
	},
	{
		Name: OpSignalInstall, BaseUS: 0.113, TotalCalls: 4.2,
		Profile: merge(syscallEntry(), path("sys_rt_sigaction_op", "do_sigaction")),
	},
	{
		Name: OpSignalHandle, BaseUS: 0.909, TotalCalls: 55.4,
		Profile: merge(syscallEntry(), path(
			"force_sig_info", "specific_send_sig_info", "__send_signal",
			"complete_signal", "signal_wake_up", "get_signal_to_deliver",
			"dequeue_signal", "recalc_sigpending", "do_notify_resume",
			"handle_signal", "setup_rt_frame", "sys_rt_sigreturn_op",
			"copy_to_user_op", "copy_from_user_op",
		), []callWeight{p("_spin_lock_irqsave", 6), p("_spin_unlock_irqrestore", 6)}),
	},
	{
		Name: OpProtFault, BaseUS: 0.185, TotalCalls: 10.6,
		Profile: merge(path(
			"do_page_fault", "bad_area_nosemaphore", "force_sig_info",
			"__send_signal", "signal_wake_up", "find_vma", "down_read", "up_read",
		)),
	},
	{
		Name: OpPipeLatency, BaseUS: 2.492, TotalCalls: 248.2,
		Profile: merge(syscallEntry(), syscallEntry(), path(
			"pipe_read", "pipe_write", "pipe_wait", "pipe_iov_copy_from_user",
			"pipe_iov_copy_to_user", "anon_pipe_buf_release",
		), []callWeight{
			p("schedule", 2), p("__schedule", 2), p("pick_next_task_fair", 2),
			p("context_switch", 2), p("finish_task_switch", 2),
			p("try_to_wake_up", 2), p("enqueue_task_fair", 2), p("dequeue_task_fair", 2),
			p("update_curr", 4), p("mutex_lock", 4), p("mutex_unlock", 4),
			p("copy_to_user_op", 2), p("copy_from_user_op", 2),
			p("_spin_lock_irqsave", 8), p("_spin_unlock_irqrestore", 8),
		}),
	},
	{
		Name: OpAFUnixLatency, BaseUS: 4.828, TotalCalls: 573.0,
		Profile: merge(syscallEntry(), syscallEntry(), path(
			"unix_stream_sendmsg", "unix_stream_recvmsg", "sock_sendmsg",
			"sock_recvmsg", "sockfd_lookup_light", "unix_write_space",
		), []callWeight{
			p("sock_alloc_send_pskb", 2), p("alloc_skb", 2), p("__alloc_skb", 2),
			p("kfree_skb", 2), p("__kfree_skb", 2), p("skb_release_data", 2),
			p("skb_copy_datagram_iovec", 2), p("skb_queue_tail_op", 2),
			p("skb_dequeue_op", 2), p("sock_def_readable", 2),
			p("schedule", 2), p("__schedule", 2), p("context_switch", 2),
			p("try_to_wake_up", 2), p("kmem_cache_alloc", 4), p("kmem_cache_free", 4),
			p("_spin_lock", 12), p("_spin_unlock", 12),
			p("copy_to_user_op", 2), p("copy_from_user_op", 2),
		}),
	},
	{
		Name: OpFcntlLock, BaseUS: 1.219, TotalCalls: 135.5,
		Profile: merge(syscallEntry(), path(
			"fcntl_setlk", "fcntl_getlk", "posix_lock_file", "locks_alloc_lock",
			"locks_free_lock", "fget_light", "fput",
		), []callWeight{
			p("kmem_cache_alloc", 2), p("kmem_cache_free", 2),
			p("_spin_lock", 8), p("_spin_unlock", 8), p("copy_from_user_op", 1),
		}),
	},
	{
		Name: OpSemaphore, BaseUS: 2.890, TotalCalls: 80.7,
		Profile: merge(syscallEntry(), path(
			"sys_semop_op", "sys_semtimedop_op", "do_semtimedop", "sem_lock_op",
			"try_atomic_semop", "update_queue_op", "ipc_lock_op", "ipcperms_op",
		), []callWeight{
			p("schedule", 1), p("try_to_wake_up", 1),
			p("_spin_lock", 6), p("_spin_unlock", 6), p("copy_from_user_op", 1),
		}),
	},
	{
		Name: OpForkExit, BaseUS: 208.914, TotalCalls: 22697,
		Profile: merge(syscallEntry(), path(
			"do_fork", "copy_process", "dup_task_struct", "alloc_pid",
			"copy_files", "copy_fs_op", "copy_sighand", "copy_signal_op",
			"wake_up_new_task", "ret_from_fork_op", "do_exit", "exit_mm",
			"exit_files", "exit_notify", "release_task", "wait_task_zombie",
			"sys_wait4_op", "do_wait", "mm_release", "put_task_struct_op",
			"free_task_op",
		), []callWeight{
			p("dup_mm", 1), p("copy_page_range", 40),
			p("kmem_cache_alloc", 60), p("kmem_cache_free", 60),
			p("__alloc_pages_internal", 30), p("get_page_from_freelist", 30),
			p("free_hot_cold_page", 30), p("free_pgtables", 8), p("unmap_vmas", 8),
			p("zap_pte_range", 30), p("find_vma", 20), p("anon_vma_prepare", 10),
			p("_spin_lock", 120), p("_spin_unlock", 120),
			p("schedule", 4), p("context_switch", 4), p("try_to_wake_up", 4),
			p("native_set_pte_at_op", 60),
		}),
	},
	{
		Name: OpForkExecve, BaseUS: 672.266, TotalCalls: 60553,
		Profile: merge(syscallEntry(), path(
			"do_fork", "copy_process", "dup_task_struct", "alloc_pid",
			"wake_up_new_task", "ret_from_fork_op", "do_execve",
			"search_binary_handler", "load_elf_binary", "flush_old_exec",
			"setup_arg_pages", "open_exec", "do_exit", "exit_mm", "exit_files",
			"exit_notify", "release_task", "sys_wait4_op", "do_wait",
		), []callWeight{
			p("copy_strings", 8), p("do_mmap_pgoff", 20), p("mmap_region", 20),
			p("find_vma", 40), p("do_page_fault", 60), p("handle_mm_fault", 60),
			p("handle_pte_fault", 60), p("do_anonymous_page", 30), p("__do_fault", 30),
			p("kmem_cache_alloc", 120), p("kmem_cache_free", 120),
			p("__alloc_pages_internal", 80), p("get_page_from_freelist", 80),
			p("copy_page_range", 20), p("zap_pte_range", 60),
			p("path_lookup", 6), p("__link_path_walk", 20), p("d_lookup", 20),
			p("vfs_read", 10), p("find_get_page", 40),
			p("_spin_lock", 260), p("_spin_unlock", 260),
			p("native_set_pte_at_op", 120), p("lru_cache_add_active", 40),
		}),
	},
	{
		Name: OpForkSh, BaseUS: 1446.800, TotalCalls: 124355,
		Profile: merge(syscallEntry(), path(
			"do_fork", "copy_process", "do_execve", "search_binary_handler",
			"load_elf_binary", "flush_old_exec", "setup_arg_pages", "open_exec",
			"do_exit", "exit_mm", "exit_files", "exit_notify", "release_task",
			"sys_wait4_op", "do_wait",
		), []callWeight{
			p("copy_strings", 16), p("do_mmap_pgoff", 50), p("mmap_region", 50),
			p("find_vma", 100), p("do_page_fault", 160), p("handle_mm_fault", 160),
			p("handle_pte_fault", 160), p("do_anonymous_page", 80), p("__do_fault", 80),
			p("kmem_cache_alloc", 260), p("kmem_cache_free", 260),
			p("__alloc_pages_internal", 180), p("get_page_from_freelist", 180),
			p("copy_page_range", 40), p("zap_pte_range", 140),
			p("path_lookup", 20), p("__link_path_walk", 60), p("d_lookup", 70),
			p("do_lookup", 50), p("vfs_read", 40), p("find_get_page", 120),
			p("do_sys_open", 20), p("filp_close", 20),
			p("_spin_lock", 500), p("_spin_unlock", 500),
			p("native_set_pte_at_op", 260), p("lru_cache_add_active", 90),
			p("schedule", 10), p("context_switch", 10),
		}),
	},
	{
		Name: OpMmapFile, BaseUS: 206.750, TotalCalls: 39844,
		Profile: merge(syscallEntry(), path(
			"do_mmap_pgoff", "mmap_region", "do_munmap",
		), []callWeight{
			p("find_vma", 60), p("find_vma_prev", 20), p("vma_merge", 20),
			p("split_vma", 8), p("anon_vma_prepare", 20),
			p("do_page_fault", 400), p("handle_mm_fault", 400),
			p("handle_pte_fault", 400), p("do_linear_fault", 320), p("__do_fault", 320),
			p("find_get_page", 360), p("add_to_page_cache_lru", 120),
			p("page_cache_readahead", 40), p("ext3_readpage", 120),
			p("ext3_get_block", 130), p("mark_page_accessed", 330),
			p("kmem_cache_alloc", 160), p("__alloc_pages_internal", 140),
			p("get_page_from_freelist", 140), p("unmap_vmas", 10),
			p("zap_pte_range", 210), p("free_pgtables", 10),
			p("_spin_lock", 600), p("_spin_unlock", 600),
			p("native_set_pte_at_op", 400), p("lru_cache_add_active", 120),
			p("flush_tlb_page", 100), p("release_pages", 40),
		}),
	},
	{
		Name: OpPageFault, BaseUS: 0.677, TotalCalls: 75.0,
		Profile: merge(path(
			"do_page_fault", "handle_mm_fault", "handle_pte_fault",
			"do_linear_fault", "__do_fault", "find_vma", "down_read", "up_read",
			"find_get_page", "mark_page_accessed", "page_add_new_anon_rmap",
			"native_set_pte_at_op", "flush_tlb_page",
		), []callWeight{p("_spin_lock", 4), p("_spin_unlock", 4)}),
	},
	{
		Name: OpUnixConnect, BaseUS: 15.328, TotalCalls: 1651.3,
		Profile: merge(syscallEntry(), syscallEntry(), path(
			"sys_connect_op", "unix_stream_connect", "sys_accept_op",
			"unix_accept_op", "sock_create_op", "sock_alloc_fd", "sock_map_fd",
			"sock_release", "sock_close_op",
		), []callWeight{
			p("kmem_cache_alloc", 20), p("kmem_cache_free", 12),
			p("alloc_skb", 4), p("__alloc_skb", 4),
			p("d_alloc", 4), p("dput", 4), p("fd_install", 2),
			p("get_unused_fd_flags", 2), p("schedule", 2), p("context_switch", 2),
			p("try_to_wake_up", 2), p("sock_def_readable", 2),
			p("_spin_lock", 40), p("_spin_unlock", 40),
		}),
	},

	// ---- Macro-workload building blocks (not in Table 1) ----
	{
		// One HTTP request served by apache over loopback: accept + reads +
		// writes + sendfile-ish page cache traffic + close. Calls fitted so
		// the apachebench table reproduces its shape (see Table 2 bench).
		Name: OpHTTPRequest, BaseUS: 70.3, TotalCalls: 2768,
		Profile: merge(syscallEntry(), syscallEntry(), path(
			"sys_accept_op", "inet_csk_accept", "sock_alloc_fd", "sock_map_fd",
			"tcp_check_req", "tcp_v4_syn_recv_sock", "sock_close_op", "sock_release",
			"tcp_close_op", "tcp_fin_op",
		), []callWeight{
			p("sock_recvmsg", 3), p("tcp_recvmsg", 3), p("sock_sendmsg", 3),
			p("tcp_sendmsg", 3), p("tcp_push_op", 3), p("tcp_write_xmit", 4),
			p("tcp_transmit_skb", 6), p("tcp_current_mss", 4),
			p("ip_queue_xmit", 6), p("ip_output", 6), p("ip_finish_output", 6),
			p("ip_local_out_op", 6), p("dev_queue_xmit", 6), p("dev_hard_start_xmit", 6),
			p("ip_rcv", 8), p("ip_rcv_finish", 8), p("ip_local_deliver", 8),
			p("ip_route_input", 8), p("tcp_v4_rcv", 8), p("tcp_v4_do_rcv", 8),
			p("tcp_rcv_established", 8), p("tcp_ack", 6), p("tcp_data_queue", 4),
			p("tcp_send_ack", 3), p("tcp_clean_rtx_queue", 4), p("tcp_rtt_estimator", 4),
			p("tcp_event_data_recv", 4), p("alloc_skb", 10), p("__alloc_skb", 10),
			p("kfree_skb", 10), p("__kfree_skb", 10), p("skb_release_data", 10),
			p("skb_clone", 4), p("skb_copy_datagram_iovec", 3),
			p("netif_receive_skb", 8), p("net_rx_action", 4), p("process_backlog", 4),
			p("eth_type_trans", 8), p("do_softirq", 6), p("__do_softirq", 6),
			p("raise_softirq", 6), p("local_bh_enable_op", 10), p("local_bh_disable_op", 10),
			p("fget_light", 8), p("fput", 6), p("find_get_page", 12),
			p("vfs_read", 2), p("do_generic_file_read", 2),
			p("lock_sock_nested", 10), p("release_sock", 10),
			p("sock_poll", 4), p("sk_reset_timer", 4), p("mod_timer", 4),
			p("schedule", 4), p("__schedule", 4), p("context_switch", 4),
			p("try_to_wake_up", 4), p("sock_def_readable", 4),
			p("kmem_cache_alloc", 24), p("kmem_cache_free", 24),
			p("_spin_lock", 60), p("_spin_unlock", 60),
			p("_spin_lock_bh", 20), p("_spin_unlock_bh", 20),
			p("copy_to_user_op", 4), p("copy_from_user_op", 4),
			p("ktime_get", 6), p("csum_partial_copy_generic_op", 6),
		}),
	},
	{
		// One dbench I/O transaction: metadata-heavy mix of creates, writes,
		// reads, unlinks against ext3 through the page cache.
		Name: OpDbenchIO, BaseUS: 38.0, TotalCalls: 2100,
		Profile: merge(syscallEntry(), []callWeight{
			p("do_sys_open", 2), p("do_filp_open", 2), p("dentry_open", 2),
			p("filp_close", 2), p("fput", 4), p("fget_light", 6),
			p("path_lookup", 4), p("__link_path_walk", 12), p("do_lookup", 10),
			p("d_lookup", 14), p("d_alloc", 2), p("dput", 10), p("permission_op", 8),
			p("vfs_write", 4), p("do_sync_write", 4), p("generic_file_aio_write", 4),
			p("generic_perform_write", 6), p("grab_cache_page", 8),
			p("__set_page_dirty_buffers", 8), p("balance_dirty_pages_ratelimited", 4),
			p("vfs_read", 3), p("do_sync_read", 3), p("generic_file_aio_read", 3),
			p("do_generic_file_read", 3), p("find_get_page", 16),
			p("ext3_write_begin", 6), p("ext3_write_end", 6), p("ext3_get_block", 8),
			p("ext3_get_blocks_handle", 8), p("ext3_new_blocks", 3),
			p("ext3_free_blocks", 2), p("ext3_journal_start_sb", 8),
			p("__ext3_journal_stop", 8), p("ext3_mark_inode_dirty", 8),
			p("ext3_dirty_inode", 8), p("journal_add_journal_head", 6),
			p("journal_dirty_metadata", 6), p("journal_get_write_access", 6),
			p("ext3_lookup", 3), p("ext3_find_entry", 4), p("ext3_add_entry", 2),
			p("ext3_create_op", 1), p("ext3_unlink_op", 1), p("ext3_readdir", 1),
			p("vfs_readdir", 1), p("filldir64", 4), p("vfs_unlink_op", 1),
			p("generic_fillattr", 3), p("vfs_getattr", 3), p("cp_new_stat", 3),
			p("file_update_time", 6), p("touch_atime", 4),
			p("kmem_cache_alloc", 30), p("kmem_cache_free", 30),
			p("__alloc_pages_internal", 10), p("get_page_from_freelist", 10),
			p("mark_page_accessed", 12), p("unlock_page", 10), p("lock_page", 10),
			p("_spin_lock", 80), p("_spin_unlock", 80),
			p("mutex_lock", 12), p("mutex_unlock", 12),
			p("copy_from_user_op", 6), p("copy_to_user_op", 5),
		}),
	},
	{
		// One scp chunk (64KB): read from disk, encrypt (user CPU + crypto
		// helpers), send over TCP.
		Name: OpScpChunk, BaseUS: 95.0, TotalCalls: 1750,
		Profile: merge(syscallEntry(), []callWeight{
			p("vfs_read", 2), p("do_sync_read", 2), p("generic_file_aio_read", 2),
			p("do_generic_file_read", 2), p("find_get_page", 18),
			p("page_cache_readahead", 2), p("ext3_readpage", 4), p("ext3_get_block", 5),
			p("mark_page_accessed", 16), p("copy_to_user_op", 6),
			p("crypto_aes_encrypt_op", 18), p("crypto_cbc_encrypt_op", 16),
			p("sha1_update_op", 10), p("crypto_hash_update_op", 10),
			p("scatterwalk_copychunks_op", 8),
			p("sock_sendmsg", 2), p("tcp_sendmsg", 2), p("tcp_push_op", 2),
			p("tcp_write_xmit", 4), p("tcp_transmit_skb", 12), p("tcp_current_mss", 4),
			p("tcp_init_tso_segs", 4), p("tcp_cwnd_validate", 4),
			p("ip_queue_xmit", 12), p("ip_output", 12), p("ip_finish_output", 12),
			p("dev_queue_xmit", 12), p("dev_hard_start_xmit", 12),
			p("qdisc_restart", 6), p("pfifo_fast_enqueue", 12), p("pfifo_fast_dequeue", 12),
			p("tcp_ack", 8), p("tcp_clean_rtx_queue", 8), p("tcp_v4_rcv", 8),
			p("tcp_rcv_established", 8), p("alloc_skb", 14), p("__alloc_skb", 14),
			p("kfree_skb", 14), p("__kfree_skb", 14), p("skb_release_data", 14),
			p("sock_alloc_send_pskb", 8), p("sk_stream_wait_memory", 2),
			p("lock_sock_nested", 6), p("release_sock", 6),
			p("csum_partial_copy_generic_op", 12), p("skb_checksum", 6),
			p("net_rx_action", 4), p("netif_receive_skb", 8), p("process_backlog", 4),
			p("do_softirq", 6), p("__do_softirq", 6),
			p("do_IRQ", 6), p("handle_irq_event", 6), p("irq_enter", 6), p("irq_exit", 6),
			p("kmem_cache_alloc", 24), p("kmem_cache_free", 24),
			p("_spin_lock", 50), p("_spin_unlock", 50),
			p("_spin_lock_bh", 16), p("_spin_unlock_bh", 16),
			p("schedule", 2), p("context_switch", 2), p("try_to_wake_up", 2),
			p("copy_from_user_op", 4),
		}),
	},
	{
		// One compilation unit of the kernel compile: fork/exec of cc1,
		// header stats/opens/reads, mmaps, page faults, object write. The
		// heavy user-mode time is accounted separately by the workload.
		Name: OpCompileUnit, BaseUS: 4200.0, TotalCalls: 310000,
		Profile: merge([]callWeight{
			p("do_fork", 2), p("copy_process", 2), p("do_execve", 2),
			p("search_binary_handler", 2), p("load_elf_binary", 2),
			p("flush_old_exec", 2), p("setup_arg_pages", 2), p("open_exec", 2),
			p("do_exit", 2), p("exit_mm", 2), p("exit_files", 2), p("exit_notify", 2),
			p("release_task", 2), p("sys_wait4_op", 2), p("do_wait", 2),
			p("do_sys_open", 40), p("do_filp_open", 40), p("filp_close", 40),
			p("fget_light", 160), p("fput", 80),
			p("path_lookup", 60), p("__link_path_walk", 200), p("do_lookup", 180),
			p("d_lookup", 260), p("permission_op", 160), p("dput", 160),
			p("vfs_stat", 60), p("vfs_getattr", 60), p("generic_fillattr", 60),
			p("cp_new_stat", 60),
			p("vfs_read", 220), p("do_sync_read", 220), p("generic_file_aio_read", 220),
			p("do_generic_file_read", 220), p("find_get_page", 1400),
			p("mark_page_accessed", 1100), p("page_cache_readahead", 60),
			p("ext3_readpage", 140), p("ext3_get_block", 160), p("ext3_lookup", 40),
			p("ext3_find_entry", 50),
			p("vfs_write", 60), p("do_sync_write", 60), p("generic_perform_write", 90),
			p("grab_cache_page", 120), p("__set_page_dirty_buffers", 120),
			p("ext3_write_begin", 60), p("ext3_write_end", 60),
			p("ext3_journal_start_sb", 70), p("__ext3_journal_stop", 70),
			p("ext3_mark_inode_dirty", 60), p("journal_dirty_metadata", 50),
			p("do_mmap_pgoff", 60), p("mmap_region", 60), p("do_munmap", 40),
			p("find_vma", 700), p("vma_merge", 30), p("anon_vma_prepare", 60),
			p("do_page_fault", 2600), p("handle_mm_fault", 2600),
			p("handle_pte_fault", 2600), p("do_anonymous_page", 1300),
			p("do_linear_fault", 900), p("__do_fault", 900), p("do_wp_page", 300),
			p("page_add_new_anon_rmap", 1300), p("lru_cache_add_active", 1200),
			p("native_set_pte_at_op", 2600), p("flush_tlb_page", 700),
			p("kmem_cache_alloc", 2200), p("kmem_cache_free", 2200),
			p("__alloc_pages_internal", 1500), p("get_page_from_freelist", 1500),
			p("free_hot_cold_page", 1300), p("zap_pte_range", 1200),
			p("free_pgtables", 60), p("unmap_vmas", 60), p("copy_page_range", 80),
			p("_spin_lock", 7000), p("_spin_unlock", 7000),
			p("_spin_lock_irqsave", 1200), p("_spin_unlock_irqrestore", 1200),
			p("down_read", 2600), p("up_read", 2600),
			p("mutex_lock", 400), p("mutex_unlock", 400),
			p("schedule", 120), p("__schedule", 120), p("pick_next_task_fair", 120),
			p("context_switch", 120), p("finish_task_switch", 120),
			p("try_to_wake_up", 120), p("update_curr", 300),
			p("copy_to_user_op", 400), p("copy_from_user_op", 300),
			p("scheduler_tick", 40), p("update_process_times", 40),
		}),
	},
	{
		Name: OpDiskRead, BaseUS: 120.0, TotalCalls: 900,
		Profile: merge(syscallEntry(), []callWeight{
			p("vfs_read", 1), p("do_sync_read", 1), p("generic_file_aio_read", 1),
			p("do_generic_file_read", 1), p("find_get_page", 16),
			p("page_cache_readahead", 2), p("add_to_page_cache_lru", 8),
			p("ext3_readpage", 8), p("ext3_get_block", 9), p("ext3_get_blocks_handle", 9),
			p("ext3_block_to_path", 9), p("generic_make_request", 4), p("submit_bio", 4),
			p("__make_request", 4), p("elv_merge", 4), p("elv_insert", 2),
			p("blk_plug_device", 2), p("__generic_unplug_device", 2),
			p("bio_alloc", 4), p("bio_put", 4), p("bio_endio", 4),
			p("get_request", 4), p("blk_rq_map_sg", 4), p("scsi_dispatch_cmd_op", 4),
			p("scsi_done_op", 4), p("blk_complete_request", 4),
			p("end_that_request_first", 4), p("disk_stat_add", 8),
			p("do_IRQ", 4), p("handle_irq_event", 4), p("irq_enter", 4), p("irq_exit", 4),
			p("do_softirq", 4), p("__do_softirq", 4),
			p("wait_on_page_bit", 4), p("unlock_page", 8), p("lock_page", 8),
			p("mark_page_accessed", 12), p("copy_to_user_op", 8),
			p("kmem_cache_alloc", 12), p("kmem_cache_free", 12),
			p("_spin_lock_irqsave", 20), p("_spin_unlock_irqrestore", 20),
			p("_spin_lock", 24), p("_spin_unlock", 24),
			p("schedule", 2), p("context_switch", 2), p("try_to_wake_up", 2),
		}),
	},
	{
		Name: OpDiskWrite, BaseUS: 90.0, TotalCalls: 850,
		Profile: merge(syscallEntry(), []callWeight{
			p("vfs_write", 1), p("do_sync_write", 1), p("generic_file_aio_write", 1),
			p("generic_perform_write", 2), p("grab_cache_page", 8),
			p("copy_from_user_op", 8), p("__set_page_dirty_buffers", 8),
			p("balance_dirty_pages_ratelimited", 2), p("write_cache_pages", 2),
			p("ext3_write_begin", 8), p("ext3_write_end", 8), p("ext3_writepage", 4),
			p("ext3_get_block", 9), p("ext3_new_blocks", 3),
			p("ext3_journal_start_sb", 9), p("__ext3_journal_stop", 9),
			p("ext3_mark_inode_dirty", 4), p("ext3_dirty_inode", 4),
			p("journal_add_journal_head", 4), p("journal_dirty_metadata", 4),
			p("journal_get_write_access", 4),
			p("generic_make_request", 3), p("submit_bio", 3), p("__make_request", 3),
			p("elv_merge", 3), p("bio_alloc", 3), p("bio_put", 3), p("bio_endio", 3),
			p("file_update_time", 2), p("kmem_cache_alloc", 12), p("kmem_cache_free", 12),
			p("_spin_lock", 28), p("_spin_unlock", 28),
			p("_spin_lock_irqsave", 12), p("_spin_unlock_irqrestore", 12),
			p("mutex_lock", 4), p("mutex_unlock", 4),
		}),
	},
	{
		Name: OpFsyncOp, BaseUS: 450.0, TotalCalls: 600,
		Profile: merge(syscallEntry(), []callWeight{
			p("do_fsync", 1), p("vfs_fsync_op", 1), p("ext3_sync_file", 1),
			p("journal_commit_transaction", 1), p("journal_dirty_metadata", 4),
			p("journal_get_write_access", 4), p("journal_add_journal_head", 4),
			p("write_cache_pages", 4), p("ext3_writepage", 6),
			p("generic_make_request", 6), p("submit_bio", 6), p("__make_request", 6),
			p("bio_alloc", 6), p("bio_endio", 6), p("bio_put", 6),
			p("blk_complete_request", 6), p("end_that_request_first", 6),
			p("scsi_dispatch_cmd_op", 6), p("scsi_done_op", 6),
			p("do_IRQ", 6), p("handle_irq_event", 6), p("irq_enter", 6), p("irq_exit", 6),
			p("wait_on_page_bit", 6), p("unlock_page", 6),
			p("schedule", 4), p("context_switch", 4), p("try_to_wake_up", 4),
			p("_spin_lock_irqsave", 24), p("_spin_unlock_irqrestore", 24),
		}),
	},
	{
		Name: OpCtxSwitch, BaseUS: 1.8, TotalCalls: 42,
		Profile: []callWeight{
			p("schedule", 1), p("__schedule", 1), p("pick_next_task_fair", 1),
			p("put_prev_task_fair", 1), p("enqueue_task_fair", 1),
			p("dequeue_task_fair", 1), p("update_curr", 2), p("check_preempt_wakeup", 1),
			p("context_switch", 1), p("finish_task_switch", 1), p("sched_clock", 2),
			p("try_to_wake_up", 1), p("set_task_cpu", 0.2), p("resched_task", 0.5),
			p("_spin_lock_irqsave", 2), p("_spin_unlock_irqrestore", 2),
		},
	},
	{
		Name: OpTimerTick, BaseUS: 1.1, TotalCalls: 30,
		Profile: []callWeight{
			p("hrtimer_interrupt", 1), p("tick_sched_timer", 1),
			p("update_process_times", 1), p("scheduler_tick", 1), p("run_local_timers", 1),
			p("raise_softirq", 1), p("run_timer_softirq", 1), p("do_softirq", 1),
			p("__do_softirq", 1), p("ktime_get", 2), p("clockevents_program_event", 1),
			p("tick_program_event", 1), p("irq_enter", 1), p("irq_exit", 1),
			p("update_curr", 1), p("prof_tick_op", 1),
			p("_spin_lock_irqsave", 2), p("_spin_unlock_irqrestore", 2),
		},
	},
	{
		// Background housekeeping: kswapd-ish page churn, workqueues, and a
		// sprinkle of the generated cold tail so the full symbol table sees
		// occasional traffic (Fig. 1's long tail). Cold functions are added
		// programmatically in Catalog construction, not here.
		Name: OpBgHousekeep, BaseUS: 22.0, TotalCalls: 480,
		Profile: []callWeight{
			p("queue_work", 2), p("__queue_work", 2), p("run_workqueue", 2),
			p("worker_thread_op", 2), p("insert_work", 2), p("delayed_work_timer_fn", 1),
			p("mod_timer", 3), p("del_timer", 2), p("hrtimer_start_op", 2),
			p("kmem_cache_alloc", 8), p("kmem_cache_free", 8),
			p("cache_alloc_refill", 1), p("cache_flusharray", 1),
			p("free_hot_cold_page", 4), p("__alloc_pages_internal", 4),
			p("get_page_from_freelist", 4), p("zone_watermark_ok", 4),
			p("release_pages", 2), p("schedule", 2), p("__schedule", 2),
			p("context_switch", 2), p("ksoftirqd_op", 1), p("tasklet_action", 1),
			p("_spin_lock", 12), p("_spin_unlock", 12),
			p("_spin_lock_irqsave", 6), p("_spin_unlock_irqrestore", 6),
		},
	},
	{
		// The Fmeter user-space logging daemon's own kernel footprint
		// (paper §5: the measurement perturbs the system uniformly).
		Name: OpDaemonLog, BaseUS: 180.0, TotalCalls: 2400,
		Profile: merge(syscallEntry(), []callWeight{
			p("debugfs_read_op", 2), p("simple_read_from_buffer_op", 2),
			p("full_proxy_read_op", 2), p("vfs_read", 2), p("do_sync_read", 2),
			p("fget_light", 4), p("fput", 2), p("copy_to_user_op", 40),
			p("vfs_write", 2), p("do_sync_write", 2), p("generic_perform_write", 4),
			p("grab_cache_page", 8), p("copy_from_user_op", 8),
			p("__set_page_dirty_buffers", 8), p("ext3_write_begin", 4),
			p("ext3_write_end", 4), p("ext3_journal_start_sb", 4),
			p("__ext3_journal_stop", 4), p("ext3_mark_inode_dirty", 2),
			p("kmem_cache_alloc", 10), p("kmem_cache_free", 10),
			p("_spin_lock", 20), p("_spin_unlock", 20),
			p("find_get_page", 10), p("mark_page_accessed", 8),
		}),
	},
	{
		// One segment of TCP transmit processing (used by netperf-style
		// sender-side paths).
		Name: OpTCPTxSegment, BaseUS: 2.4, TotalCalls: 58,
		Profile: []callWeight{
			p("tcp_sendmsg", 0.2), p("tcp_push_op", 0.2), p("tcp_write_xmit", 1),
			p("tcp_transmit_skb", 1), p("tcp_current_mss", 0.5),
			p("tcp_init_tso_segs", 0.5), p("ip_queue_xmit", 1), p("ip_output", 1),
			p("ip_finish_output", 1), p("ip_local_out_op", 1), p("dev_queue_xmit", 1),
			p("dev_hard_start_xmit", 1), p("qdisc_restart", 0.5),
			p("pfifo_fast_enqueue", 1), p("pfifo_fast_dequeue", 1),
			p("alloc_skb", 1), p("__alloc_skb", 1), p("sock_alloc_send_pskb", 0.5),
			p("skb_put_op", 1), p("csum_partial_copy_generic_op", 1),
			p("kfree_skb", 1), p("__kfree_skb", 1), p("skb_release_data", 1),
			p("tcp_ack", 0.8), p("tcp_clean_rtx_queue", 0.8), p("tcp_rtt_estimator", 0.8),
			p("_spin_lock_bh", 2), p("_spin_unlock_bh", 2),
			p("_spin_lock", 3), p("_spin_unlock", 3),
			p("kmem_cache_alloc", 2), p("kmem_cache_free", 2),
		},
	},
}

// Catalog holds the compiled operation set for a symbol table.
type Catalog struct {
	st  *SymbolTable
	ops map[string]*Op
}

// NewCatalog compiles the operation catalog against st. The boot-phase op is
// synthesized here because it needs programmatic access to the whole table
// (it touches the cold tail with Zipf-distributed weights — Figure 1).
func NewCatalog(st *SymbolTable) (*Catalog, error) {
	c := &Catalog{st: st, ops: make(map[string]*Op, len(opSpecs)+1)}
	for _, spec := range opSpecs {
		op, err := compileOp(st, spec)
		if err != nil {
			return nil, fmt.Errorf("kernel: compiling op %s: %w", spec.Name, err)
		}
		c.ops[op.Name] = op
	}
	c.ops[OpBootPhase] = compileBootOp(st)
	return c, nil
}

// compileOp resolves and scales a spec into an Op. Repeated profile entries
// for the same function are summed before scaling.
func compileOp(st *SymbolTable, spec OpSpec) (*Op, error) {
	if spec.TotalCalls <= 0 {
		return nil, fmt.Errorf("TotalCalls %v must be positive", spec.TotalCalls)
	}
	if len(spec.Profile) == 0 {
		return nil, fmt.Errorf("empty profile")
	}
	byID := make(map[FuncID]float64, len(spec.Profile))
	var wsum float64
	for _, cw := range spec.Profile {
		if cw.weight <= 0 {
			return nil, fmt.Errorf("non-positive weight %v for %s", cw.weight, cw.fn)
		}
		id, err := st.Lookup(cw.fn)
		if err != nil {
			return nil, err
		}
		byID[id] += cw.weight
		wsum += cw.weight
	}
	op := &Op{
		Name:        spec.Name,
		BaseNS:      spec.BaseUS * 1000,
		TotalCalls:  spec.TotalCalls,
		ModuleCalls: spec.ModuleCalls,
	}
	ids := make([]FuncID, 0, len(byID))
	for id := range byID {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	scale := spec.TotalCalls / wsum
	for _, id := range ids {
		op.Funcs = append(op.Funcs, id)
		op.MeanCounts = append(op.MeanCounts, byID[id]*scale)
	}
	return op, nil
}

// compileBootOp builds the boot-phase op: every hot function gets rank-
// weighted traffic and the entire cold tail gets Zipf-tail traffic, so one
// boot run produces the heavy-tailed rank/count curve of Figure 1 over all
// ~3800 functions.
func compileBootOp(st *SymbolTable) *Op {
	n := st.Len()
	op := &Op{Name: OpBootPhase, BaseNS: 2e9} // ~2 virtual seconds of late boot
	var total float64
	// Deterministic rank permutation: order functions by a hash of their
	// address so neighbouring IDs do not share neighbouring ranks.
	rank := make([]int, n)
	for i := range rank {
		rank[i] = i
	}
	sort.Slice(rank, func(a, b int) bool {
		ha := st.symbols[rank[a]].Addr * 2654435761 % 1000003
		hb := st.symbols[rank[b]].Addr * 2654435761 % 1000003
		if ha != hb {
			return ha < hb
		}
		return rank[a] < rank[b]
	})
	// Power-law counts over ranks: count(r) = C / (r+1)^1.1, C tuned so the
	// top function lands near 1e6 calls, matching Figure 1's y-range.
	const c0 = 1.2e6
	const alpha = 1.1
	for r, idx := range rank {
		mean := c0 / math.Pow(float64(r+1), alpha)
		if mean < 1 {
			mean = 1 // every function is invoked at least once during boot
		}
		op.Funcs = append(op.Funcs, FuncID(idx))
		op.MeanCounts = append(op.MeanCounts, mean)
		total += mean
	}
	op.TotalCalls = total
	return op
}

// Op returns the compiled operation by name.
func (c *Catalog) Op(name string) (*Op, error) {
	op, ok := c.ops[name]
	if !ok {
		return nil, fmt.Errorf("kernel: unknown op %q", name)
	}
	return op, nil
}

// SymbolTable returns the table the catalog was compiled against.
func (c *Catalog) SymbolTable() *SymbolTable { return c.st }
