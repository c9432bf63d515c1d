/* hostprof: a SIGPROF sampler for a host with no PMU and no perf.
 *
 *   gcc -O2 -shared -fPIC -o hostprof.so hostprof.c
 *   HOSTPROF_OUT=run.prof LD_PRELOAD=./hostprof.so <program> <args>
 *   python3 report.py run.prof <program>
 *
 * Every 500 us of the process's CPU time the handler stores the interrupted
 * instruction pointer in a preallocated array (no allocation, no locking, no
 * stack walk: a flat profile). At exit it writes /proc/self/maps ("M" lines)
 * and the addresses ("S" lines) for report.py to symbolise. The handler runs
 * on its own stack, so it is safe under the simulator's small coroutine
 * stacks. x86-64 Linux only.
 */
#define _GNU_SOURCE
#include <signal.h>
#include <stdio.h>
#include <stdlib.h>
#include <sys/time.h>
#include <ucontext.h>

#define MAX_SAMPLES (1 << 20)
static unsigned long samples[MAX_SAMPLES];
static volatile unsigned long taken;
static char handler_stack[1 << 16];

static void on_sigprof(int sig, siginfo_t *info, void *uc) {
    (void)sig, (void)info;
    if (taken < MAX_SAMPLES)
        samples[taken++] = ((ucontext_t *)uc)->uc_mcontext.gregs[REG_RIP];
}

static void write_profile(void) {
    struct itimerval off = {{0, 0}, {0, 0}};
    setitimer(ITIMER_PROF, &off, NULL);
    const char *path = getenv("HOSTPROF_OUT");
    FILE *out = fopen(path ? path : "hostprof.out", "w");
    FILE *maps = fopen("/proc/self/maps", "r");
    if (!out || !maps)
        return;
    char line[1024];
    while (fgets(line, sizeof line, maps))
        fprintf(out, "M %s", line);
    for (unsigned long i = 0; i < taken; i++)
        fprintf(out, "S %lx\n", samples[i]);
    fclose(maps);
    fclose(out);
}

__attribute__((constructor)) static void start(void) {
    stack_t ss = {.ss_sp = handler_stack, .ss_size = sizeof handler_stack};
    sigaltstack(&ss, NULL);
    struct sigaction sa = {.sa_sigaction = on_sigprof,
                           .sa_flags = SA_SIGINFO | SA_RESTART | SA_ONSTACK};
    sigaction(SIGPROF, &sa, NULL);
    struct itimerval every = {{0, 500}, {0, 500}};
    setitimer(ITIMER_PROF, &every, NULL);
    atexit(write_profile);
}
