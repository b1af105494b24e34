/* Reads far past the end of memory: a machine fault on every engine. */
int a[4];
int main() { return a[1000000]; }
